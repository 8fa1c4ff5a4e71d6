"""Checks that carry weight survive `python -O`, which strips every
`assert` statement: the library raises instead, and the CLI keeps its
exit statuses when run optimized."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from totalcolor.embedding import dump_embedding
from totalcolor.gen import gen_toroidal_grid

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "totalcolor").glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


K4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
TRIANGLE = "0 1\n0 2\n1 2\n"
OFF_PALETTE = "kappa 3\nv 0 1\nv 1 2\nv 2 9\ne 0 1 3\ne 0 2 2\ne 1 2 1\n"
NEGATIVE_PALETTE = OFF_PALETTE.replace("kappa 3", "kappa -3")
GRID = dump_embedding(gen_toroidal_grid(3, 3)[1])
REPEATED_EXCLUSION = '{"rules": [], "exclusions": ["guarded-crossing", "guarded-crossing"]}'


@pytest.mark.parametrize(
    "argv, files, status",
    [
        (["verify", "c3.el", "c3.tc"], {"c3.el": TRIANGLE, "c3.tc": OFF_PALETTE}, 1),
        (["verify", "c3.el", "c3.tc"], {"c3.el": TRIANGLE, "c3.tc": NEGATIVE_PALETTE}, 2),
        (["color", "k4.el", "--kappa", "3"], {"k4.el": K4}, 2),
        (["color", "k4.el", "--budget", "-5"], {"k4.el": K4}, 2),
        (
            ["discharge", "grid.emb", "--rules", "T.json"],
            {"grid.emb": GRID, "T.json": REPEATED_EXCLUSION},
            2,
        ),
    ],
    ids=[
        "verify-off-palette",
        "verify-negative-kappa",
        "color-kappa-3",
        "color-budget-minus-5",
        "discharge-repeated-exclusion",
    ],
)
def test_cli_statuses_under_optimize(tmp_path, argv, files, status):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "totalcolor.cli", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == status, proc.stderr
    if status == 2:
        assert proc.stderr.startswith("error: ")

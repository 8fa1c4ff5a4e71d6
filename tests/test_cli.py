"""Command-line tests: golden output pinning, exit-status contract, and
JSON round trips."""
from __future__ import annotations

import json

import pytest

from totalcolor.augment import build_g_star
from totalcolor.cli import main
from totalcolor.embedding import dump_embedding, parse_embedding
from totalcolor.gen import (
    gen_crossed,
    gen_planar_triangulation,
    gen_toroidal_grid,
    true_graph_of,
)
from totalcolor.graphs import build_graph, dump_edge_list

from helpers import grid_beside_a_sphere


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k4_file(tmp_path):
    g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    p = tmp_path / "k4.el"
    p.write_text(dump_edge_list(g))
    return str(p)


@pytest.fixture
def grid_file(tmp_path):
    _, e = gen_toroidal_grid(3, 3)
    p = tmp_path / "grid.emb"
    p.write_text(dump_embedding(e))
    return str(p)


@pytest.fixture
def crossed_file(tmp_path):
    _, e = gen_toroidal_grid(3, 3)
    c = gen_crossed(e, 2, seed=1)
    p = tmp_path / "crossed.emb"
    p.write_text(dump_embedding(c))
    return str(p)


# ---------------------------------------------------------------------------
# golden outputs


def test_faces_golden(capsys, grid_file):
    code, out, _ = run(capsys, ["faces", grid_file])
    assert code == 0
    head = out.splitlines()[:6]
    assert head == [
        "surface: torus",
        "vertices: 9 (9 true, 0 crossing)",
        "segments: 18",
        "euler characteristic: 0",
        "faces: 9",
        "census: 4:9",
    ]
    assert "f0: 0 3 4 1" in out.splitlines()


def test_color_k4_golden(capsys, k4_file):
    code, out, _ = run(capsys, ["color", k4_file])
    assert code == 0
    assert out == (
        "graph: 4 vertices, 6 edges, delta 3\n"
        "kappa: 5\n"
        "colors used: 5\n"
        "within bound: yes\n"
        "  exact core: 10 elements, chi=5\n"
        "\n"
        "kappa 5\n"
        "v 0 1\n"
        "v 1 2\n"
        "v 2 3\n"
        "v 3 4\n"
        "e 0 1 3\n"
        "e 0 2 4\n"
        "e 0 3 5\n"
        "e 1 2 5\n"
        "e 1 3 1\n"
        "e 2 3 2\n"
    )


def test_exact_golden(capsys, k4_file):
    code, out, _ = run(capsys, ["exact", k4_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "elements: 10"
    assert lines[1] == "chi_tt = 5"


def test_discharge_torus_total_zero(capsys, grid_file):
    code, out, _ = run(capsys, ["discharge", grid_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "surface: torus"
    assert "initial total = 0" in lines
    assert "total = 0" in lines
    assert "conserved: yes" in lines


def test_discharge_plane_total(capsys, tmp_path):
    _, e = gen_planar_triangulation(6, seed=1)
    p = tmp_path / "tri.emb"
    p.write_text(dump_embedding(e))
    code, out, _ = run(capsys, ["discharge", str(p)])
    assert code == 0
    assert "initial total = -12" in out.splitlines()
    assert "total = -12" in out.splitlines()


def test_audit_k4_golden(capsys, k4_file):
    code, out, _ = run(capsys, ["audit", k4_file, "--kappa", "5"])
    assert code == 1
    assert out.splitlines() == [
        "kappa: 5",
        "Claim1: FAIL (0, 1, 2, 3)",
        "P1: pass",
        "P2: pass",
        "P3: pass",
        "P4: skip",
        "P5: skip",
        "minimal-candidate: no",
    ]


def test_check_p_golden(capsys, k4_file, tmp_path):
    code, out, _ = run(capsys, ["check-p", k4_file])
    assert code == 0
    assert out == "property: holds\n"
    k6 = build_graph([(i, j) for i in range(6) for j in range(i + 1, 6)])
    p = tmp_path / "k6.el"
    p.write_text(dump_edge_list(k6))
    code, out, _ = run(capsys, ["check-p", str(p)])
    assert code == 1
    assert out.splitlines()[0] == "property: violated"
    assert "K4 on" in out


def test_gstar_reports_insertions(capsys, crossed_file, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, ["gstar", crossed_file, "--dot", str(dot)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "surface: torus"
    assert "crossing vertices: 2" in lines
    text = dot.read_text()
    assert text.startswith("graph gstar {")
    assert "[style=dashed]" in text  # the augmentation added edges
    assert "[style=solid]" in text


# ---------------------------------------------------------------------------
# verify and the coloring round trip


def test_color_then_verify_roundtrip(capsys, k4_file, tmp_path):
    code, out, _ = run(capsys, ["color", k4_file])
    assert code == 0
    coloring_text = out.split("\n\n", 1)[1]
    tc = tmp_path / "k4.tc"
    tc.write_text(coloring_text)
    code, out, _ = run(capsys, ["verify", k4_file, str(tc)])
    assert code == 0
    assert out == "kappa: 5\nviolations: 0\n"


def test_verify_corrupted_coloring(capsys, k4_file, tmp_path):
    code, out, _ = run(capsys, ["color", k4_file])
    bad = out.split("\n\n", 1)[1].replace("v 0 1", "v 0 2")
    tc = tmp_path / "bad.tc"
    tc.write_text(bad)
    code, out, _ = run(capsys, ["verify", k4_file, str(tc)])
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "violations: 1"
    assert lines[2] == "  v0 ~ v1"


TRIANGLE_COLORING = """kappa 3
v 0 1
v 1 2
v 2 9
e 0 1 3
e 0 2 2
e 1 2 1
"""


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "c3.el"
    p.write_text(dump_edge_list(build_graph([(0, 1), (1, 2), (0, 2)])))
    return str(p)


def test_verify_rejects_elements_the_graph_lacks(capsys, triangle_file, tmp_path):
    tc = tmp_path / "extra.tc"
    tc.write_text(TRIANGLE_COLORING + "e 5 7 1\nv 8 1\n")
    code, out, err = run(capsys, ["verify", triangle_file, str(tc)])
    assert code == 2
    assert out == ""
    assert "lacks" in err and "('v', 8)" in err and "('e', 5, 7)" in err


def test_verify_flags_colors_off_the_palette(capsys, triangle_file, tmp_path):
    tc = tmp_path / "range.tc"
    tc.write_text(TRIANGLE_COLORING)
    code, out, _ = run(capsys, ["verify", triangle_file, str(tc)])
    assert code == 1
    assert out.splitlines() == [
        "kappa: 3",
        "violations: 1",
        "  v2 color 9 outside the palette",
    ]


def test_verify_rejects_a_negative_palette(capsys, triangle_file, tmp_path):
    tc = tmp_path / "negative.tc"
    tc.write_text(TRIANGLE_COLORING.replace("kappa 3", "kappa -3"))
    code, out, err = run(capsys, ["verify", triangle_file, str(tc)])
    assert (code, out) == (2, "")
    assert err == "error: bad coloring line 1: 'kappa -3'\n"


def test_verify_rejects_repeated_entries(capsys, triangle_file, tmp_path):
    tc = tmp_path / "twice.tc"
    tc.write_text(TRIANGLE_COLORING.replace("v 2 9", "v 2 3") + "e 1 0 2\n")
    code, _, err = run(capsys, ["verify", triangle_file, str(tc)])
    assert code == 2
    assert "line 8" in err


def test_discharge_rejects_malformed_rules(capsys, grid_file, tmp_path):
    rules = tmp_path / "rules.json"
    for table in (
        {"rules": [1]},
        {"rules": 5},
        {"rules": [], "exclusions": 3},
        {"rules": [], "exclusions": ["guarded-crossing", "guarded-crossing"]},
        {"rules": [{"id": "x", "sender": {"faces": 5}, "amount": "1/3"}]},
        {"rules": [{"id": "x", "receiver": {"kind": "banana"}, "amount": "1/3"}]},
    ):
        rules.write_text(json.dumps(table))
        code, out, err = run(capsys, ["discharge", grid_file, "--rules", str(rules)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_discharge_rejects_non_finite_numbers_in_rules(capsys, grid_file, tmp_path):
    rules = tmp_path / "rules.json"
    for text in (
        '{"rules": [{"id": "x", "amount": Infinity}]}',
        '{"rules": [{"id": "x", "receiver": {"faces": [{"min_share": -Infinity}]},'
        ' "amount": "1/3"}]}',
        '{"rules": [{"id": "x", "receiver": {"faces": [{"min_share": 1e400}]},'
        ' "amount": "1/3"}]}',
    ):
        rules.write_text(text)
        code, out, err = run(capsys, ["discharge", grid_file, "--rules", str(rules)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "bad amount" in err or "bad min_share" in err


def test_color_missed_bound_still_emits(capsys, k4_file):
    code, out, _ = run(capsys, ["color", k4_file, "--kappa", "4"])
    assert code == 1
    assert "within bound: NO" in out
    assert "kappa 4" in out or "colors used: 5" in out
    # the coloring block is still there for inspection
    assert "\n\n" in out


def test_color_p3_step_after_core_missed_the_bound(capsys, tmp_path):
    # the greedy core needs 7 colors, one more than the P3 edge (0, 4) was
    # peeled at; the verb reports the missed bound with a proper coloring
    el = tmp_path / "g6.el"
    el.write_text("0 4\n0 5\n1 2\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n3 4\n3 5\n4 5\n")
    code, out, _ = run(capsys, ["color", str(el), "--kappa", "6", "--budget", "0"])
    assert code == 1
    assert "within bound: NO" in out
    assert "  extended across (0, 4) via apex 5\n" in out
    tc = tmp_path / "g6.tc"
    tc.write_text(out.split("\n\n", 1)[1])
    code, out, _ = run(capsys, ["verify", str(el), str(tc)])
    assert (code, out) == (0, "kappa: 7\nviolations: 0\n")


@pytest.mark.parametrize("kappa", ["-3", "3"])
def test_color_palette_below_delta_plus_one_is_input_error(capsys, k4_file, kappa):
    # no total coloring of K4 (delta 3) fits fewer than 4 colors
    code, out, err = run(capsys, ["color", k4_file, "--kappa", kappa])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "max degree + 1 = 4" in err


def test_color_negative_budget_is_input_error(capsys, k4_file):
    # exact rejects the same budget; a budget of 0 only rules out the core
    code, out, err = run(capsys, ["color", k4_file, "--budget", "-5"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "budget" in err
    assert run(capsys, ["color", k4_file, "--budget", "0"])[0] == 0


def test_exact_negative_budget_is_input_error(capsys, tmp_path):
    # on an empty graph it once blamed "0 elements" for exceeding the budget
    empty = tmp_path / "empty.el"
    empty.write_text("")
    code, out, err = run(capsys, ["exact", str(empty), "--budget", "-1"])
    assert (code, out, err) == (2, "", "error: the exact budget must be >= 0, got -1\n")
    assert run(capsys, ["exact", str(empty), "--budget", "0"])[0] == 0


# ---------------------------------------------------------------------------
# exit-status contract


def test_unknown_verb_and_flag(capsys, grid_file):
    assert run(capsys, ["florp"])[0] == 2
    assert run(capsys, ["faces", grid_file, "--zap"])[0] == 2


def test_usage_text_on_bad_verb(capsys):
    code, _, err = run(capsys, ["florp"])
    assert code == 2
    assert "usage:" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["color", str(tmp_path / "absent.el")])
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("verb, name", [("faces", "drawing.emb"), ("color", "graph.el")])
def test_a_file_that_is_not_utf8_is_named(capsys, tmp_path, verb, name):
    p = tmp_path / name
    p.write_bytes(b"\xff\xfe0 1\n")
    code, out, err = run(capsys, [verb, str(p)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {p}: not UTF-8 text\n"


def test_malformed_file_names_line(capsys, tmp_path):
    p = tmp_path / "mangled.el"
    p.write_text("0 1\nbroken line here\n")
    code, _, err = run(capsys, ["color", str(p)])
    assert code == 2
    assert "line 2" in err


def test_malformed_embedding_names_section(capsys, tmp_path):
    p = tmp_path / "mangled.emb"
    p.write_text("surface: torus\nrotation:\n0: not numbers\n")
    code, _, err = run(capsys, ["faces", str(p)])
    assert code == 2
    assert "error:" in err


def test_mislabelled_surface_exits_2(capsys, tmp_path):
    _, e = gen_planar_triangulation(20, seed=1)
    text = dump_embedding(e)
    assert "surface: plane" in text
    p = tmp_path / "relabelled.emb"
    p.write_text(text.replace("surface: plane", "surface: torus"))
    code, out, err = run(capsys, ["discharge", str(p)])
    assert code == 2
    assert out == ""
    assert "not 2-cell for declared surface torus" in err


@pytest.mark.parametrize("verb", ["discharge", "gstar", "faces"])
def test_a_disconnected_drawing_exits_2(capsys, tmp_path, verb):
    # a torus grid beside a sphere sums to V-E+F = 2 as a "plane"; discharge
    # used to report total = -12, conserved: yes, and exit 0
    p = tmp_path / "two-parts.emb"
    p.write_text(dump_embedding(grid_beside_a_sphere()))
    code, out, err = run(capsys, [verb, str(p)])
    assert code == 2
    assert out == ""
    assert "the drawing has 2 connected components" in err


@pytest.mark.parametrize("verb", ["discharge", "gstar"])
@pytest.mark.parametrize("origin", ["0 8", "100 200"])
def test_origin_off_its_segment_exits_2(capsys, grid_file, tmp_path, verb, origin):
    # segment 0-10 of the 3x3 grid joins vertices 0 and 3
    text = open(grid_file).read()
    p = tmp_path / "lying.emb"
    p.write_text(text.replace("0 10 -> 0 3\n", f"0 10 -> {origin}\n"))
    code, out, err = run(capsys, [verb, str(p)])
    assert (code, out) == (2, "")
    assert err.startswith("error: segment (0, 10) ends at ") and err.count("\n") == 1


@pytest.mark.parametrize("verb", ["discharge", "gstar"])
def test_a_g_star_dump_as_input_exits_2(capsys, crossed_file, tmp_path, verb):
    # G*'s new segments have no origin edge, so it depicts no single graph
    e = parse_embedding(open(crossed_file).read())
    star = build_g_star(e, true_graph_of(e)).star
    text = dump_embedding(star)
    assert "-> new\n" in text
    p = tmp_path / "gstar.emb"
    p.write_text(text)
    code, out, err = run(capsys, [verb, str(p)])
    assert (code, out) == (2, "")
    assert err == "error: base drawing carries unresolved new segments\n"


@pytest.mark.parametrize(
    "old, new",
    [
        ("surface: torus\n", "surface: plane\nsurface: torus\n"),
        ("rotation:\n", "rotation:\n0: 0 11 34 25\n"),
        ("origins:\n", "origins:\n0 10 -> 0 3\n"),
        ("twins:\n", "crossings:\n99\ntwins:\n"),
        ("twins:\n0 10\n", "twins:\n0 10\n0 10\n"),
    ],
    ids=["surface", "rotation", "origin", "crossing", "twin"],
)
def test_repeated_or_dangling_embedding_entries_exit_2(capsys, grid_file, tmp_path, old, new):
    p = tmp_path / "repeated.emb"
    p.write_text(open(grid_file).read().replace(old, new, 1))
    code, out, err = run(capsys, ["faces", str(p)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["color --json", "gstar --dot", "gen --out"])
def test_unwritable_output_path_exits_2(capsys, k4_file, grid_file, tmp_path, flag):
    verb, option = flag.split()
    target = {
        "color": [k4_file],
        "gstar": [grid_file],
        "gen": ["grid", "3", "3"],
    }[verb]
    # a path below a regular file can be neither created nor written
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    path = str(blocker) if verb == "gen" else str(blocker / "x.out")
    code, out, err = run(capsys, [verb, *target, option, path])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_gen_unwritable_json_writes_no_corpus(capsys, tmp_path, where):
    json_path = tmp_path / "missing" / "m.json" if where == "missing-dir" else tmp_path
    out_dir = tmp_path / "corpus"
    code, out, err = run(
        capsys, ["gen", "grid", "3", "3", "--out", str(out_dir), "--json", str(json_path)]
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {json_path}: ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("stale", [None, "stale"])
def test_gen_json_mirrors_the_manifest(capsys, tmp_path, stale):
    json_path = tmp_path / "m.json"
    if stale is not None:
        json_path.write_text(stale)
    out_dir = tmp_path / "corpus"
    code, _, _ = run(
        capsys, ["gen", "grid", "3", "3", "--out", str(out_dir), "--json", str(json_path)]
    )
    assert code == 0
    assert json.loads(json_path.read_text()) == json.loads(
        (out_dir / "manifest.json").read_text()
    )


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0


# ---------------------------------------------------------------------------
# gen verb


def test_gen_writes_manifest(capsys, tmp_path):
    code, out, _ = run(
        capsys, ["gen", "grid", "3", "4", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "wrote grid-3x4-s0" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["entries"][0]["name"] == "grid-3x4-s0"
    assert (tmp_path / "grid-3x4-s0.el").exists()
    assert (tmp_path / "grid-3x4-s0.emb").exists()


def test_gen_statuses(capsys, tmp_path):
    out_dir = str(tmp_path)
    # capacity exhaustion is a domain failure
    code, _, err = run(capsys, ["gen", "crossed_grid", "3", "3", "12", "--out", out_dir])
    assert code == 1
    assert "placed 9 of 12" in err
    # a bad family is an input error
    code, _, err = run(capsys, ["gen", "blob", "3", "--out", out_dir])
    assert code == 2
    assert "unknown generator family 'blob'" in err
    # infeasible parameters are input errors too
    assert run(capsys, ["gen", "wheel_sum", "11", "15", "--out", out_dir])[0] == 2
    assert run(capsys, ["gen", "grid", "two", "3", "--out", out_dir])[0] == 2


def test_gen_negative_pair_count_is_input_error(capsys, tmp_path):
    out_dir = tmp_path / "o"
    code, out, err = run(capsys, ["gen", "crossed_grid", "3", "3", "-2", "--out", str(out_dir)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "-2" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "params",
    [["grid", "5"], ["grid", "5", "5", "5"], ["planar_triangulation"],
     ["wheel_sum", "12"], ["crossed_grid", "4", "4"]],
    ids=" ".join,
)
def test_gen_wrong_parameter_count_is_input_error(capsys, tmp_path, params):
    code, out, err = run(capsys, ["gen", *params, "--out", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: family ") and "parameter(s)" in err


# ---------------------------------------------------------------------------
# --json round trips


def test_discharge_json_stable(capsys, crossed_file, tmp_path):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, ["discharge", crossed_file, "--json", str(j1)])[0] == 0
    assert run(capsys, ["discharge", crossed_file, "--json", str(j2)])[0] == 0
    a = json.loads(j1.read_text())
    b = json.loads(j2.read_text())
    assert a == b
    assert a["conserved"] is True
    assert a["initial_total"] == a["final_total"]


def test_color_json_refeeds_clean(capsys, k4_file, tmp_path):
    j = tmp_path / "c.json"
    assert run(capsys, ["color", k4_file, "--json", str(j)])[0] == 0
    payload = json.loads(j.read_text())
    assert payload["ok"] is True
    assert payload["colors_used"] == 5
    tc = tmp_path / "refed.tc"
    tc.write_text(payload["coloring_text"])
    jj = tmp_path / "v.json"
    assert run(capsys, ["verify", k4_file, str(tc), "--json", str(jj)])[0] == 0
    assert json.loads(jj.read_text()) == {"count": 0, "kappa": 5, "violations": []}


def test_faces_json_matches_text(capsys, grid_file, tmp_path):
    j = tmp_path / "f.json"
    code, out, _ = run(capsys, ["faces", grid_file, "--json", str(j)])
    payload = json.loads(j.read_text())
    assert payload["faces"] and len(payload["faces"]) == payload["census"]["4"] == 9
    assert f"segments: {payload['segments']}" in out

"""Acceptance gate: one test per shipped criterion, each ending in a single
pass line with the measured quantities.  Every bound is asserted at its
stated tolerance; timings use the stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from totalcolor.augment import AugmentedGraph, build_g_star
from totalcolor.coloring import exact_chi_tt, solve_tcc, verify
from totalcolor.configs import all_configs, get_config, verify_config
from totalcolor.discharge import (
    TransferRecord,
    check_claims,
    discharge,
    make_ledger,
    semi_fans,
)
from totalcolor.embedding import charge_sum_identity
from totalcolor.gen import (
    true_graph_of,
    gen_crossed,
    gen_high_degree_P_drawing,
    gen_planar_triangulation,
    gen_toroidal_grid,
)
from totalcolor.graphs import build_graph
from totalcolor.reduce import brute_validate_extensions, enum_graphs

from helpers import brute_chi_tt


def _cycle(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)])


@pytest.fixture(scope="module")
def corpus():
    """The 100 seeded drawings criteria 1-3 sweep: crossed toroidal grids,
    stacked plane triangulations, and high-degree plane quadrangulations."""
    drawings = []
    for s in range(40):
        _, e = gen_toroidal_grid(3 + s % 3, 3 + (s // 3) % 3)
        drawings.append(gen_crossed(e, 1 + s % 3, seed=s))
    for s in range(30):
        _, e = gen_planar_triangulation(5 + s % 12, seed=s)
        drawings.append(e)
    for s in range(30):
        delta = 11 + s % 3
        _, e = gen_high_degree_P_drawing(delta, 2 * delta + 1 + (s % 4) * 20, seed=s)
        drawings.append(e)
    assert len(drawings) == 100
    return drawings


def test_criterion_01_charge_identity(corpus):
    """Vertex charges deg-6 plus face charges 2*size-6 sum to 0 on the
    torus and -12 on the plane, exactly, on every generated drawing."""
    t0 = time.time()
    for e in corpus:
        total, expected = charge_sum_identity(e)
        assert expected == (0 if e.surface == "torus" else -12)
        assert total == expected
    # and at the dart budget: a 50x50 grid is exactly 10^4 darts
    t_big = time.time()
    _, big = gen_toroidal_grid(50, 50)
    total, expected = charge_sum_identity(big)
    assert big.num_segments() * 2 == 10_000
    assert total == expected == 0
    big_elapsed = time.time() - t_big
    assert big_elapsed < 1.0
    print(
        f"\ncriterion 1: PASS - identity exact on {len(corpus)} drawings + "
        f"10^4-dart grid in {big_elapsed:.2f}s (< 1s)"
    )


def test_criterion_02_conservation(corpus):
    """After the full default rule table, total charge plus pool equals the
    initial total, exactly, on all 100 corpora, inside 10 seconds."""
    t0 = time.time()
    for e in corpus:
        a = build_g_star(e, true_graph_of(e))
        ledger = discharge(a)
        assert {"R1", "R2", "R3"} <= set(ledger.applied)
        assert ledger.conserved_total() == ledger.initial_total()
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(
        f"\ncriterion 2: PASS - conservation exact on {len(corpus)} corpora "
        f"in {elapsed:.1f}s (< 10s)"
    )


def test_criterion_03_face_share_bounds(corpus):
    """Wherever the face-share preconditions hold (a small true vertex on a
    big face), the computed share meets the bound: at least 4/3 from
    5+-faces; 1, or 2/3 flanked by two crossings, from 4-faces.  Exact
    rational arithmetic, exhaustive over the corpora."""
    faces_checked = 0
    for e in corpus:
        a = build_g_star(e, true_graph_of(e))
        ledger = discharge(a)
        report = check_claims(a, ledger)
        assert report.big_face == []
        faces_checked += sum(1 for f in a.star.faces() if len(f) >= 4)
    # the worked neighbourhoods, too: every focal corner must meet the bound
    # (their truncated support corners are exempt by construction)
    focal_corners = 0
    for cfg in all_configs():
        a = cfg.build()
        report = check_claims(a, discharge(a))
        assert [w for w in report.big_face if w[1] == cfg.focal] == []
        focal_corners += 1
    print(
        f"\ncriterion 3: PASS - face shares met the bound at every "
        f"qualifying corner ({faces_checked} big faces swept plus "
        f"{focal_corners} catalog focal corners, 0 violations)"
    )


def test_criterion_04_golden_configurations():
    """Hand-encoded worked neighbourhoods settle their focal vertex at
    exactly zero under the default table; at least 10 of them."""
    golden = [c for c in all_configs() if c.golden]
    assert len(golden) >= 10
    for cfg in golden:
        report = verify_config(cfg)
        assert report["zero"], (cfg.name, report["final"])
        assert report["receipts_match"], (cfg.name, report["receipts"])
        assert report["conserved"], cfg.name
    print(
        f"\ncriterion 4: PASS - {len(golden)} golden configurations end at "
        f"exactly 0 (>= 10 required)"
    )


def test_criterion_05_extension_soundness():
    """The two coloring-extension moves never fail where their
    preconditions hold: exhaustive over all connected graphs on <= 5
    vertices and both palettes, and a >= 10^5-call sample at 6 vertices.
    Zero failures, zero stuck cascades, inside 10 minutes."""
    t0 = time.time()
    r5 = brute_validate_extensions(5)
    assert r5.failures == 0
    assert r5.certificates == []
    r6 = brute_validate_extensions(6, coloring_cap=80, seed=7)
    assert r6.failures == 0
    assert r6.certificates == []
    assert r6.checks >= 100_000
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(
        f"\ncriterion 5: PASS - {r5.checks} exhaustive checks (n<=5) and "
        f"{r6.checks} sampled checks (n<=6), 0 failures, {elapsed:.0f}s (< 600s); "
        f"colorings cut at the cap in {r5.truncated} of {r5.instances} instances "
        f"(n<=5, cap 1000) and {r6.truncated} of {r6.instances} (n<=6, cap 80)"
    )


def test_criterion_06_oracle_values():
    """The exact solver agrees with the independent brute-force oracle on
    the frozen reference values, inside a minute."""
    t0 = time.time()
    cases = [
        ("K2", build_graph([(0, 1)]), 3),
        ("C3", _cycle(3), 3),
        ("K4", _complete(4), 5),
        ("C5", _cycle(5), 4),
    ]
    for name, g, expected in cases:
        chi, witness = exact_chi_tt(g)
        oracle = brute_chi_tt(g)
        assert chi == oracle == expected, (name, chi, oracle, expected)
        assert not verify(g, witness)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        f"\ncriterion 6: PASS - oracle and solver agree on "
        f"{', '.join(n for n, _, _ in cases)} in {elapsed:.1f}s (< 60s)"
    )


def test_criterion_07_small_graph_sweep():
    """Every connected graph on at most 6 vertices needs at most Delta + 2
    total colors, by exact search, inside 15 minutes."""
    t0 = time.time()
    count = 0
    tight = 0
    for n in range(1, 7):
        for g in enum_graphs(n, connected=True):
            chi, _ = exact_chi_tt(g)
            bound = g.max_degree() + 2
            assert chi <= bound, (n, g.edges(), chi)
            count += 1
            if chi == bound:
                tight += 1
    elapsed = time.time() - t0
    assert count == 143
    assert elapsed < 900.0
    print(
        f"\ncriterion 7: PASS - all {count} connected graphs on <= 6 "
        f"vertices within Delta+2 ({tight} tight) in {elapsed:.1f}s (< 900s)"
    )


def test_criterion_08_solver_on_target_class():
    """On 50 generated high-degree triangle-free instances (Delta >= 11,
    <= 300 vertices), the solver meets Delta + 2 in at least 95% and always
    returns a verifying coloring."""
    rng = random.Random(20240819)
    within = 0
    total = 0
    t0 = time.time()
    for i in range(50):
        delta = 11 + i % 4
        size = rng.choice([delta + 1, 2 * delta + 1, 60, 120, 200, 300])
        if delta + 1 < size < 2 * delta + 1:
            size = 2 * delta + 1
        g, _ = gen_high_degree_P_drawing(delta, size, seed=i)
        assert len(g.vertices) <= 300
        result = solve_tcc(g)
        assert verify(g, result.coloring) == []
        assert result.colors_used >= 1
        total += 1
        if result.ok:
            within += 1
    elapsed = time.time() - t0
    assert total == 50
    assert within / total >= 0.95
    print(
        f"\ncriterion 8: PASS - {within}/{total} instances within Delta+2 "
        f"(>= 95% required), 50/50 verifying, {elapsed:.0f}s"
    )


def test_criterion_09_semi_fan_accounting():
    """The extremal fan golden configuration averages exactly 2/5 per
    corner at its center, and a constructed sub-threshold run averages
    strictly less."""
    a = get_config("fan-run").build()
    ledger = discharge(a)
    fans = semi_fans(a, ledger, center=1)
    assert len(fans) == 1
    assert fans[0].total == Fraction(2)  # four transfers of 1/2
    assert fans[0].faces == 5
    assert fans[0].average == Fraction(2, 5)

    # sub-threshold: three consecutive 1/3 ribs flanked by idle edges
    e, g = None, None
    _, emb = gen_toroidal_grid(3, 3)
    a2 = AugmentedGraph(g=true_graph_of(emb), base=emb, star=emb, insertions=[])
    led2 = make_ledger(a2)
    for d in a2.star.rotation[0][:3]:
        led2.transfers.append(
            TransferRecord("x", 0, a2.star.other_end(d), Fraction(1, 3), dart=d)
        )
    fans2 = semi_fans(a2, led2, center=0)
    assert len(fans2) == 1
    assert fans2[0].average == Fraction(1, 4)
    assert fans2[0].average < Fraction(2, 5)
    print(
        "\ncriterion 9: PASS - extremal fan averages exactly 2/5; "
        "sub-threshold run averages 1/4 < 2/5"
    )

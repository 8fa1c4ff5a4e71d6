"""Charge bookkeeping: initial charges, the four rule families, semi-fan
outflow accounting, structural claims, and the final report."""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

import totalcolor.discharge as discharge_module
from totalcolor.augment import AugmentedGraph, augment_report, build_g_star
from totalcolor.configs import all_configs, assemble, get_config
from totalcolor.discharge import (
    POOL,
    DischargeError,
    SemiFan,
    TransferRecord,
    apply_r1,
    apply_r2,
    apply_r3,
    apply_rule_table,
    check_claims,
    discharge,
    element_label,
    final_report,
    initial_charges,
    make_ledger,
    semi_fans,
)
from totalcolor.gen import (
    gen_crossed,
    gen_high_degree_P_drawing,
    gen_planar_triangulation,
    gen_toroidal_grid,
    true_graph_of,
)
from totalcolor.graphs import build_graph
from totalcolor.ruletable import RuleTable, default_rules, rule_table_from_dict

from helpers import (
    grid_faces,
    petal_fan,
    quad_with_crossing,
    torus_grid,
    wheel_plane,
    wrap_drawing,
)


def wrapped_quad():
    e, g = quad_with_crossing()
    return AugmentedGraph(g=g, base=e, star=e, insertions=[])


def wrapped_grid(m, n):
    e, g = torus_grid(m, n)
    return AugmentedGraph(g=g, base=e, star=e, insertions=[])


# -- initial charges ----------------------------------------------------------

def test_initial_charges_torus_sum_to_zero():
    for m, n in [(3, 3), (3, 4), (4, 5)]:
        a = wrapped_grid(m, n)
        charges = initial_charges(a)
        assert sum(charges.values()) == 0
        # every vertex is 4-regular, every face a quadrilateral
        assert all(charges[v] == -2 for v in a.star.vertices())
        assert all(charges[("face", i)] == 2 for i in range(len(a.star.faces())))


def test_initial_charges_plane_sum_to_minus_twelve():
    a = wrapped_quad()
    assert sum(initial_charges(a).values()) == -12
    b = get_config("twin-anchors").build()
    assert sum(initial_charges(b).values()) == -12


def test_ledger_totals_survive_any_transfer():
    a = wrapped_quad()
    led = make_ledger(a)
    led.transfers.append(TransferRecord("x", 0, 2, Fraction(5, 7)))
    led.transfers.append(TransferRecord("x", ("face", 0), 1, Fraction(1, 6)))
    assert led.conserved_total() == led.initial_total() == -12
    assert led.final_of(2) == led.initial[2] + Fraction(5, 7)


# -- R1: the pooled payments to degree-3 vertices -----------------------------

def r1_two_patrons():
    """Torus grid with one degree-3 vertex (16) whose patrons 0 and 4 are
    pumped to the maximum degree 6."""
    faces = [
        f
        for f in grid_faces(4, 4)
        if f not in ((0, 4, 5, 1), (3, 7, 4, 0), (4, 8, 9, 5))
    ]
    faces += [
        (0, 4, 16), (4, 5, 16), (5, 1, 0, 16),
        (7, 4, 0), (0, 3, 7),
        (4, 8, 9), (4, 9, 5),
    ]
    return wrap_drawing(faces, "torus")


def r1_one_patron():
    """Like r1_two_patrons but vertex 16 reaches degree 4 in the star via a
    new edge to 1, and only vertex 0 is pumped to the maximum."""
    faces = [f for f in grid_faces(4, 4) if f not in ((0, 4, 5, 1), (3, 7, 4, 0))]
    faces += [
        (0, 4, 16), (4, 5, 16), (5, 1, 16), (1, 0, 16),
        (7, 4, 0), (0, 3, 7),
    ]
    return assemble(
        [list(f) for f in faces], new_pairs=((1, 16),), surface="torus"
    )


def test_r1_balanced_pool():
    a = r1_two_patrons()
    c = a.classification[16]
    assert (c.d1, c.d2) == (3, 3)
    led = make_ledger(a)
    assert led.delta == 6
    apply_r1(a, led)
    assert led.pool == 0
    assert not led.pool_flagged
    assert [(t.rule, t.source, t.target, t.amount) for t in led.transfers] == [
        ("R1", 0, POOL, Fraction(1, 2)),
        ("R1", 4, POOL, Fraction(1, 2)),
        ("R1", POOL, 16, Fraction(1)),
    ]


def test_r1_underfunded_pool_is_flagged():
    a = r1_one_patron()
    c = a.classification[16]
    assert (c.d1, c.d2) == (3, 4)
    assert c.new_incident
    led = make_ledger(a)
    apply_r1(a, led)
    assert led.pool == Fraction(-1, 2)
    assert led.pool_flagged
    senders = [t.source for t in led.transfers if t.target == POOL]
    assert senders == [0]


def test_r1_wheel_pool_deficit():
    # the augmented 5-wheel: hub plus fan apex pay in, all five rim
    # vertices draw out
    e, g = wheel_plane(5)
    a = build_g_star(e, g)
    led = make_ledger(a)
    apply_r1(a, led)
    assert led.pool == -4
    assert led.pool_flagged
    assert sum(1 for t in led.transfers if t.target == POOL) == 2
    assert sum(1 for t in led.transfers if t.source == POOL) == 5


def test_r1_without_receivers_is_a_noop():
    a = wrapped_grid(3, 3)  # 4-regular: nobody has degree 3
    led = make_ledger(a)
    apply_r1(a, led)
    assert led.transfers == []
    assert led.pool == 0
    assert led.applied == ["R1"]


# -- R2: big faces split their charge among small occupants -------------------

def pumped_core(core, pumps):
    faces = [core]
    tip = 30
    for v, out in pumps:
        chain = [out] + list(range(tip, tip + 4))
        faces += petal_fan(v, chain)
        tip += 4
    return assemble([list(f) for f in faces])


def core_face(a, core):
    star = a.star
    for i, f in enumerate(star.faces()):
        if f.size == len(core) and {star.owner[d] for d in f.boundary} == set(core):
            return i
    raise AssertionError("core face missing")


def r2_share_to(a, fi):
    led = make_ledger(a)
    apply_r2(a, led)
    return sorted(
        (t.target, t.amount) for t in led.transfers if t.source == ("face", fi)
    )


def test_r2_quad_one_big():
    a = pumped_core((0, 1, 2, 3), [(0, 1)])
    fi = core_face(a, (0, 1, 2, 3))
    assert r2_share_to(a, fi) == [(1, Fraction(2, 3)), (2, Fraction(2, 3)), (3, Fraction(2, 3))]


def test_r2_quad_two_bigs():
    a = pumped_core((0, 1, 2, 3), [(0, 1), (1, 2)])
    fi = core_face(a, (0, 1, 2, 3))
    assert r2_share_to(a, fi) == [(2, Fraction(1)), (3, Fraction(1))]


def test_r2_pentagon_two_bigs():
    a = pumped_core((0, 1, 2, 3, 4), [(0, 1), (1, 2)])
    fi = core_face(a, (0, 1, 2, 3, 4))
    assert r2_share_to(a, fi) == [
        (2, Fraction(4, 3)), (3, Fraction(4, 3)), (4, Fraction(4, 3)),
    ]


def test_r2_face_with_no_smalls_keeps_its_charge():
    a = pumped_core((0, 1, 2, 3), [(0, 1), (1, 2), (2, 3), (3, 0)])
    fi = core_face(a, (0, 1, 2, 3))
    led = make_ledger(a)
    apply_r2(a, led)
    assert [t for t in led.transfers if t.source == ("face", fi)] == []
    assert led.final_of(("face", fi)) == 2


def test_r2_counts_occurrences_with_multiplicity():
    # bow-tie: vertex 1 appears twice on the outer 6-walk and collects twice
    faces = [(0, 1, 2), (1, 3, 4), (0, 2, 1, 4, 3, 1)]
    g = build_graph([(0, 1), (1, 2), (0, 2), (1, 3), (1, 4), (3, 4)])
    a = wrap_drawing(faces, "plane", g=g)
    led = make_ledger(a)
    apply_r2(a, led)
    assert len(led.transfers) == 6
    assert all(t.amount == 1 for t in led.transfers)
    assert led.received_by(1) == 2


def test_r2_shares_exactly_exhaust_each_face():
    for a in [wrapped_grid(3, 4), get_config("quad-split").build()]:
        led = make_ledger(a)
        apply_r2(a, led)
        for i, f in enumerate(a.star.faces()):
            paid = sum(
                (t.amount for t in led.transfers if t.source == ("face", i)),
                Fraction(0),
            )
            assert paid in (0, 2 * f.size - 6)
            assert led.final_of(("face", i)) in (0, 2 * f.size - 6)


# -- R3: well-surrounded (5,5)-vertices ---------------------------------------

def starred_wheel():
    """5-wheel whose spokes to 2 and 4 are crossed by the chords 1-3 and
    3-5; the hub keeps five triangular corners but only three true
    neighbours."""
    faces = [
        (0, 1, 6), (0, 6, 3), (0, 3, 7), (0, 7, 5), (0, 5, 1),
        (1, 2, 6), (6, 2, 3), (3, 4, 7), (7, 4, 5),
        (1, 5, 4, 3, 2),
    ]
    g = build_graph(
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
         (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (3, 5)]
    )
    return wrap_drawing(faces, "plane", crossings=(6, 7), g=g)


def test_r3_three_true_neighbours_pay_one():
    a = starred_wheel()
    hub = a.classification[0]
    assert (hub.d1, hub.d2, hub.kind) == (5, 5, "true")
    led = make_ledger(a)
    apply_r3(a, led)
    assert led.received_by(0) == 1
    assert sorted((t.source, t.amount) for t in led.transfers) == [
        (1, Fraction(1, 3)), (3, Fraction(1, 3)), (5, Fraction(1, 3)),
    ]


def test_r3_big_corner_disqualifies():
    # vertex 3 of the starred wheel is also a (5,5)-vertex, but one of its
    # corners is the outer 5-face, so it collects nothing
    a = starred_wheel()
    c3 = a.classification[3]
    assert (c3.d1, c3.d2) == (5, 5)
    led = make_ledger(a)
    apply_r3(a, led)
    assert led.received_by(3) == 0
    assert all(t.target == 0 for t in led.transfers)


def test_r3_five_true_neighbours_pay_five_thirds():
    e, g = wheel_plane(5)
    a = AugmentedGraph(g=g, base=e, star=e, insertions=[])
    led = make_ledger(a)
    apply_r3(a, led)
    assert led.received_by(0) == Fraction(5, 3)
    assert len(led.transfers) == 5


# -- the local rule table -----------------------------------------------------

def test_empty_rule_table_is_a_noop():
    a = wrapped_quad()
    led = make_ledger(a)
    apply_rule_table(a, led, RuleTable())
    assert led.transfers == []
    assert led.applied == ["R4"]


def test_overlapping_rules_raise():
    table = rule_table_from_dict(
        {
            "rules": [
                {"id": "both-a", "sender": {}, "receiver": {"kind": "true"}, "amount": "1/3"},
                {"id": "both-b", "sender": {}, "receiver": {"kind": "true"}, "amount": "1/2"},
            ]
        }
    )
    a = wrapped_quad()
    led = make_ledger(a)
    with pytest.raises(DischargeError, match="both-a, both-b"):
        apply_rule_table(a, led, table)


def test_crossing_settles_with_one_big_face_and_two_halves():
    # 4 - 6 + 1 + 2*(1/2) = 0
    rep_cfg = get_config("fan-run")
    a = rep_cfg.build()
    led = discharge(a)
    got = sorted(
        (t.rule, t.amount) for t in led.transfers if t.target == rep_cfg.focal
    )
    assert got == [
        ("R2", Fraction(1)),
        ("rx-inner-new", Fraction(1, 2)),
        ("rx-inner-new", Fraction(1, 2)),
    ]
    assert led.final_of(rep_cfg.focal) == 0


def test_crossing_settles_with_three_two_thirds():
    # 4 - 6 + 3*(2/3) = 0
    cfg = get_config("twin-anchors")
    a = cfg.build()
    led = discharge(a)
    amounts = sorted(t.amount for t in led.transfers if t.target == cfg.focal)
    assert amounts == [Fraction(2, 3)] * 3
    assert led.final_of(cfg.focal) == 0


def test_guard_reroutes_to_skipped():
    a = get_config("guard-stop").build()
    led = discharge(a)
    assert [(t.rule, t.source, t.target) for t in led.skipped] == [
        ("rx-triangles-mid", 3, 0)
    ]
    assert led.final_of(0) == Fraction(-2, 3)
    # skipped transfers do not move charge, so conservation still holds
    assert led.conserved_total() == led.initial_total()
    # with the exclusion disabled the same transfer lands
    bare = RuleTable(rules=default_rules().rules, exclusions=())
    led2 = discharge(a, table=bare)
    assert led2.skipped == []
    assert led2.final_of(0) == led.final_of(0) + Fraction(1, 3)


def test_discharge_is_deterministic():
    a = get_config("cross-new-rich").build()
    t1 = [(t.rule, t.source, t.target, t.amount, t.dart) for t in discharge(a).transfers]
    t2 = [(t.rule, t.source, t.target, t.amount, t.dart) for t in discharge(a).transfers]
    assert t1 == t2


def test_full_pipeline_conserves_everywhere():
    instances = [
        wrapped_quad(),
        wrapped_grid(3, 3),
        wrapped_grid(4, 4),
        starred_wheel(),
    ]
    for a in instances:
        led = discharge(a)
        assert led.conserved_total() == led.initial_total()
        assert led.applied == ["R1", "R2", "R3", "R4"]


# -- semi-fans ----------------------------------------------------------------

def test_semi_fan_golden_two_fifths():
    a = get_config("fan-run").build()
    led = discharge(a)
    fans = semi_fans(a, led, center=1)
    assert fans == [
        SemiFan(center=1, positions=(2, 3, 4, 5), total=Fraction(2), faces=5)
    ]
    assert fans[0].average == Fraction(2, 5)


def test_semi_fan_center_below_the_bar_is_rejected():
    a = get_config("fan-run").build()
    led = discharge(a)
    with pytest.raises(DischargeError, match="below"):
        semi_fans(a, led, center=5)
    with pytest.raises(DischargeError, match="not a true vertex"):
        semi_fans(a, led, center=0)


def test_semi_fan_quiet_center_degenerates():
    a = wrapped_grid(3, 3)
    led = make_ledger(a)
    fans = semi_fans(a, led, center=0)
    assert fans == [SemiFan(center=0, positions=(), total=Fraction(0), faces=1)]
    assert fans[0].average == 0


def test_semi_fan_constructed_run_is_sub_threshold():
    # three consecutive 1/3 ribs flanked by idle edges: (3*(1/3))/4 = 1/4
    a = wrapped_grid(3, 3)
    led = make_ledger(a)
    rot = a.star.rotation[0]
    for d in rot[:3]:
        led.transfers.append(
            TransferRecord("x", 0, a.star.other_end(d), Fraction(1, 3), dart=d)
        )
    fans = semi_fans(a, led, center=0)
    assert fans == [SemiFan(center=0, positions=(0, 1, 2), total=Fraction(1), faces=4)]
    assert fans[0].average == Fraction(1, 4) < Fraction(2, 5)


def test_semi_fan_saturated_wheel_has_no_padding():
    a = wrapped_grid(3, 3)
    led = make_ledger(a)
    rot = a.star.rotation[0]
    for d in rot:
        led.transfers.append(
            TransferRecord("x", 0, a.star.other_end(d), Fraction(1, 6), dart=d)
        )
    fans = semi_fans(a, led, center=0)
    assert fans == [
        SemiFan(center=0, positions=(0, 1, 2, 3), total=Fraction(2, 3), faces=4)
    ]


def test_semi_fan_ignores_face_payments_and_pool():
    a = r1_two_patrons()
    led = make_ledger(a)
    apply_r1(a, led)
    apply_r2(a, led)
    # patron 0 paid only into the pool; face payments never form fans
    assert semi_fans(a, led, center=0) == [
        SemiFan(center=0, positions=(), total=Fraction(0), faces=1)
    ]


def test_semi_fan_runs_split_on_idle_edges():
    rng = random.Random(991)
    a = wrapped_grid(4, 4)
    led = make_ledger(a)
    for trial in range(200):
        led.transfers.clear()
        rot = a.star.rotation[0]
        mask = [rng.random() < 0.5 for _ in rot]
        for d, hot in zip(rot, mask):
            if hot:
                led.transfers.append(
                    TransferRecord("x", 0, a.star.other_end(d), Fraction(1, 6), dart=d)
                )
        fans = semi_fans(a, led, center=0)
        if all(mask):
            assert len(fans) == 1 and fans[0].faces == len(rot)
            continue
        if not any(mask):
            assert fans == [
                SemiFan(center=0, positions=(), total=Fraction(0), faces=1)
            ]
            continue
        # each fan is a maximal cyclic run: padded length = run + 1,
        # total outflow matches the mask, and runs never touch
        assert sum(len(f.positions) for f in fans) == sum(mask)
        for f in fans:
            assert f.faces == len(f.positions) + 1
            assert all(mask[p] for p in f.positions)
            before = (f.positions[0] - 1) % len(rot)
            after = (f.positions[-1] + 1) % len(rot)
            assert not mask[before] and not mask[after]


# -- structural claims --------------------------------------------------------

def test_claims_on_the_diagonal_square():
    a = wrapped_quad()
    rep = check_claims(a, discharge(a))
    # the four true vertices form a K4, every original edge joins two
    # smalls, and the outer face pays 1/2 < 1 to its small corners
    assert rep.no_4_clique == [(0, 1, 2, 3)]
    assert len(rep.one_big_vertex) == 8
    assert len(rep.big_face) == 4
    assert all(share == Fraction(1, 2) for (_, _, _, _, share) in rep.big_face)
    assert rep.crossing_quiet == []
    assert not rep.holds()
    assert rep.counts()["no_4_clique"] == 1


def test_claims_triangle_free_grid():
    a = wrapped_grid(3, 3)
    rep = check_claims(a, discharge(a))
    assert rep.no_4_clique == []
    # all-small 4-faces still violate the share floor
    assert len(rep.big_face) == 36
    assert len(rep.one_big_vertex) == 72


def test_claims_quiet_crossing_detection():
    a = get_config("guard-stop").build()
    guarded = discharge(a)
    assert check_claims(a, guarded).crossing_quiet == []
    bare = RuleTable(rules=default_rules().rules, exclusions=())
    loud = discharge(a, table=bare)
    assert check_claims(a, loud).crossing_quiet == [
        (3, 0, "rx-triangles-mid", Fraction(1, 3))
    ]


def test_claims_hold_on_golden_neighbourhoods():
    # the catalog drawings model the structures the argument keeps, so the
    # local claims hold on them wherever the preconditions bite
    for name in ("twin-anchors", "fan-run", "calm-quad"):
        a = get_config(name).build()
        led = discharge(a)
        rep = check_claims(a, led)
        assert rep.crossing_quiet == []
        assert rep.no_4_clique == []


# -- reporting ----------------------------------------------------------------

def test_element_labels():
    assert element_label(POOL) == "pool"
    assert element_label(("face", 3)) == "f3"
    assert element_label(17) == "v17"


def test_final_report_shapes():
    a = wrapped_grid(3, 3)
    rep = final_report(make_ledger(a))
    assert rep["surface"] == "torus"
    assert rep["initial_total"] == "0"
    assert rep["conserved"] is True
    assert rep["charges"]["v0"] == "-2"

    b = wrapped_quad()
    repb = final_report(make_ledger(b))
    assert repb["initial_total"] == "-12"
    assert repb["negative_count"] == 5


def test_final_report_lists_negatives_first():
    a = get_config("guard-stop").build()
    led = discharge(a)
    rep = final_report(led)
    charges = [Fraction(x) for x in rep["charges"].values()]
    signs = [c < 0 for c in charges]
    assert signs == sorted(signs, reverse=True)
    assert rep["skipped"] == [
        {"rule": "rx-triangles-mid", "from": "v3", "to": "v0", "amount": "1/3"}
    ]
    assert rep["applied"] == ["R1", "R2", "R3", "R4"]
    assert Fraction(rep["final_total"]) == led.initial_total()


# -- golden pins --------------------------------------------------------------
# sha256 of the augmentation report, the final report and the claim counts,
# which a refactor of the discharging code must reproduce exactly.


def _acceptance_drawings():
    """The 100 seeded drawings of the acceptance corpus, regenerated."""
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
    return drawings


def _pin_digest(instances):
    h = hashlib.sha256()
    for a in instances:
        ledger = discharge(a)
        for part in (
            augment_report(a),
            final_report(ledger),
            check_claims(a, ledger).counts(),
        ):
            h.update(json.dumps(part, sort_keys=True).encode())
            h.update(b"\0")
    return h.hexdigest()


def test_golden_acceptance_corpus_reports():
    instances = [build_g_star(e, true_graph_of(e)) for e in _acceptance_drawings()]
    assert len(instances) == 100
    assert _pin_digest(instances) == (
        "5612b74aece8ed4ede684eace82c219291090383ea1949334487943569143e10"
    )


def test_golden_config_reports():
    assert _pin_digest([cfg.build() for cfg in all_configs()]) == (
        "c1e5b619325edc364ed0597cbac2c2f6e590028c2f437cf67868f817f7688ba1"
    )


def test_one_match_context_per_ledger(monkeypatch):
    # the ledger's index serves R2, R3, the rule table and the claims
    built = []
    real = discharge_module.MatchContext

    def counting(a):
        built.append(a)
        return real(a)

    monkeypatch.setattr(discharge_module, "MatchContext", counting)
    a = get_config("guard-stop").build()
    ledger = discharge(a)
    check_claims(a, ledger)
    assert built == [a]

"""Charge bookkeeping: initial charges, the four rule families, semi-fan
outflow accounting, structural claims, and the final report."""
from __future__ import annotations

import copy
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import totalcolor.discharge as discharge_module
import totalcolor.ruletable as ruletable_module
from totalcolor.augment import AugmentedGraph, VertexClass, augment_report, build_g_star
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
from totalcolor.ruletable import (
    MatchContext,
    RuleTable,
    _class_matches,
    default_rules,
    guarded_crossing,
    receiver_matches,
    resolve_threshold,
    rule_table_from_dict,
    sender_matches,
)

from helpers import (
    GENERATED_DRAWINGS,
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
    assert led.final()[2] == led.initial[2] + Fraction(5, 7)


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
        if len(f) == len(core) and {star.owner[d] for d in f} == set(core):
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
    assert led.final()[("face", fi)] == 2


def test_r2_counts_occurrences_with_multiplicity():
    # bow-tie: vertex 1 appears twice on the outer 6-walk and collects twice
    faces = [(0, 1, 2), (1, 3, 4), (0, 2, 1, 4, 3, 1)]
    g = build_graph([(0, 1), (1, 2), (0, 2), (1, 3), (1, 4), (3, 4)])
    a = wrap_drawing(faces, "plane", g=g)
    led = make_ledger(a)
    apply_r2(a, led)
    assert len(led.transfers) == 6
    assert all(t.amount == 1 for t in led.transfers)
    assert led.final()[1] == led.initial[1] + 2


def test_r2_shares_exactly_exhaust_each_face():
    for a in [wrapped_grid(3, 4), get_config("quad-split").build()]:
        led = make_ledger(a)
        apply_r2(a, led)
        for i, f in enumerate(a.star.faces()):
            paid = sum(
                (t.amount for t in led.transfers if t.source == ("face", i)),
                Fraction(0),
            )
            assert paid in (0, 2 * len(f) - 6)
            assert led.final()[("face", i)] in (0, 2 * len(f) - 6)


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
    assert led.final()[0] == led.initial[0] + 1
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
    # vertex 3 pays the hub its third and collects nothing
    assert led.final()[3] == led.initial[3] - Fraction(1, 3)
    assert all(t.target == 0 for t in led.transfers)


def test_r3_five_true_neighbours_pay_five_thirds():
    e, g = wheel_plane(5)
    a = AugmentedGraph(g=g, base=e, star=e, insertions=[])
    led = make_ledger(a)
    apply_r3(a, led)
    assert led.final()[0] == led.initial[0] + Fraction(5, 3)
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
    assert led.final()[rep_cfg.focal] == 0


def test_crossing_settles_with_three_two_thirds():
    # 4 - 6 + 3*(2/3) = 0
    cfg = get_config("twin-anchors")
    a = cfg.build()
    led = discharge(a)
    amounts = sorted(t.amount for t in led.transfers if t.target == cfg.focal)
    assert amounts == [Fraction(2, 3)] * 3
    assert led.final()[cfg.focal] == 0


def test_guard_reroutes_to_skipped():
    a = get_config("guard-stop").build()
    led = discharge(a)
    assert [(t.rule, t.source, t.target) for t in led.skipped] == [
        ("rx-triangles-mid", 3, 0)
    ]
    assert led.final()[0] == Fraction(-2, 3)
    # skipped transfers do not move charge, so conservation still holds
    assert led.conserved_total() == led.initial_total()
    # with the exclusion disabled the same transfer lands
    bare = RuleTable(rules=default_rules().rules, exclusions=())
    led2 = discharge(a, table=bare)
    assert led2.skipped == []
    assert led2.final()[0] == led.final()[0] + Fraction(1, 3)


def test_discharge_is_deterministic():
    a = get_config("cross-new-rich").build()
    t1 = [(t.rule, t.source, t.target, t.amount, t.dart) for t in discharge(a).transfers]
    t2 = [(t.rule, t.source, t.target, t.amount, t.dart) for t in discharge(a).transfers]
    assert t1 == t2


def _every_rule_on_every_dart(a, ledger, table):
    """The rule table without the receiver-class index: every rule is tried
    on every dart, each threshold resolved where it is tested."""
    ctx, star = ledger.ctx, a.star

    def threshold(rule):
        m = rule.sender.min_degree
        return None if m is None else resolve_threshold(m, ledger.delta)

    for r in star.vertices():
        for r_dart in star.rotation[r]:
            s = star.other_end(r_dart)
            hits = [
                rule
                for rule in table.rules
                if sender_matches(rule.sender, ctx, s, r_dart, threshold(rule))
                and receiver_matches(rule.receiver, ctx, r, r_dart)
            ]
            if len(hits) > 1:
                ids = ", ".join(rule.id for rule in hits)
                raise DischargeError(
                    f"rules {ids} all claim the transfer {s} -> {r} (dart {r_dart})"
                )
            if hits:
                rule = hits[0]
                rec = TransferRecord(rule.id, s, r, rule.amount, dart=star.twin[r_dart])
                guarded = "guarded-crossing" in table.exclusions and guarded_crossing(
                    ctx, s, r, r_dart
                )
                (ledger.skipped if guarded else ledger.transfers).append(rec)


def _rule_table_outcome(fire, a, table):
    ledger = make_ledger(a)
    try:
        fire(a, ledger, table)
    except DischargeError as exc:
        return str(exc)
    return ledger.transfers, ledger.skipped


# a class-free receiver beside class-pinned ones; the senders are disjoint,
# so no dart is claimed twice
MIXED_TABLE = {
    "rules": [
        {"id": "free", "sender": {"kind": "crossing"}, "receiver": {}, "amount": "1/6"},
        {"id": "deg3", "sender": {"kind": "true"}, "receiver": {"d1": 3}, "amount": "1/3"},
        {
            "id": "cross",
            "sender": {"kind": "true", "min_degree": "delta-2"},
            "receiver": {"kind": "crossing"},
            "amount": "1/2",
        },
    ],
    "exclusions": ["guarded-crossing"],
}


# every pattern field the rule table's memo keys stand for: each face-token
# field (min_share on triangles separates faces with and without small
# occurrences; old-corner reads new_edge where the big counts agree),
# opposite_end_small, num_crossing_neighbors, via_new_edge both ways, and
# numeric and named thresholds; receivers are disjoint by class or by
# sender, so no dart is claimed twice
KEYED_TABLE = {
    "rules": [
        {
            "id": "all-big-corner",
            "sender": {"kind": "true", "min_degree": 8},
            "receiver": {
                "kind": "true", "d2": 6,
                "faces": [{"size": 3, "min_share": "1/6"}, "3+", "3+", "3+", "3+", "3+"],
            },
            "amount": "1/6",
        },
        {
            "id": "big-pair-corner",
            "sender": {"kind": "true", "min_degree": 5},
            "receiver": {
                "kind": "true", "d2": 4,
                "faces": [{"size": 3, "min_bigs": 2}, {"size": 3, "max_bigs": 1}, 3, 3],
            },
            "amount": "1/3",
        },
        {
            "id": "new-spoke",
            "sender": {"kind": "true", "min_degree": "delta-2", "via_new_edge": True},
            "receiver": {
                "kind": "true", "d1": 4, "d2": 5,
                "faces": [
                    {"new_edge": True}, 3, 3, 3,
                    {"size": 3, "new_edge": True, "max_bigs": 2},
                ],
            },
            "amount": "1/2",
        },
        {
            "id": "old-spoke",
            "sender": {"kind": "true", "min_degree": "delta-2", "via_new_edge": False},
            "receiver": {
                "kind": "true", "d1": 5, "d2": 5,
                "faces": [
                    {"new_edge": True}, {"size": 3, "new_edge": False},
                    {"new_edge": False}, "3+", "3+",
                ],
            },
            "amount": "1/6",
        },
        {
            "id": "old-corner",
            "sender": {"kind": "true", "min_degree": 4},
            "receiver": {
                "kind": "true", "d1": 5, "d2": 7,
                "faces": [{"size": 3, "new_edge": False}, "3+", "3+", "3+", "3+", "3+", "3+"],
            },
            "amount": "1/3",
        },
        {
            "id": "big-opposite",
            "sender": {"kind": "true", "min_degree": "delta-1"},
            "receiver": {"kind": "crossing", "opposite_end_small": False},
            "amount": "1/2",
        },
        {
            "id": "two-crossings",
            "sender": {"kind": "true", "via_new_edge": False},
            "receiver": {"kind": "true", "num_crossing_neighbors": 2},
            "amount": "1/3",
        },
    ],
    "exclusions": ["guarded-crossing"],
}


def seeded_g_stars():
    """Crossed 8x8 torus grids, with new edges and crossings of both
    neighbourhoods, and 200-vertex triangulations, with hubs."""
    drawings = []
    for s in (0, 1, 2):
        drawings.append(gen_crossed(gen_toroidal_grid(8, 8)[1], 12, seed=s))
        drawings.append(gen_planar_triangulation(200, seed=s)[1])
    return [build_g_star(e, true_graph_of(e)) for e in drawings]


def test_receiver_class_index_matches_every_rule_on_every_dart():
    instances = [cfg.build() for cfg in all_configs()]
    instances += [wrapped_quad(), wrapped_grid(3, 3), starred_wheel()]
    instances += seeded_g_stars()
    keyed = rule_table_from_dict(KEYED_TABLE)
    fired = {}
    for table in (default_rules(), rule_table_from_dict(MIXED_TABLE), keyed):
        for a in instances:
            want = _rule_table_outcome(_every_rule_on_every_dart, a, table)
            assert _rule_table_outcome(apply_rule_table, a, table) == want
            if not isinstance(want, str):
                for rec in want[0] + want[1]:
                    fired[rec.rule] = fired.get(rec.rule, 0) + 1
    # both tables actually fire, guard skips included
    assert {"free", "deg3", "cross", "rx-triangles-mid"} <= fired.keys()
    # the default table fires nothing on the seeded drawings; every keyed rule
    # fires, so a memo key that drops a field shows up as a changed ledger
    assert {rule.id for rule in keyed.rules} <= fired.keys()


@pytest.mark.parametrize("table", [default_rules(), rule_table_from_dict(KEYED_TABLE)])
def test_a_sender_side_is_tested_once_per_class_pair(monkeypatch, table):
    """The sender side reads only the sender's class and whether the dart
    is new, so it runs at most once per (rule, receiver class, sender
    class, via-new flag), not once per dart."""
    e = gen_crossed(gen_toroidal_grid(8, 8)[1], 12, seed=1)
    a = build_g_star(e, true_graph_of(e))
    star, cls = a.star, a.classification
    rule_of = {id(rule.sender): rule.id for rule in table.rules}
    calls = []

    def counted(p, ctx, s, r_dart, min_degree):
        r = star.owner[r_dart]
        calls.append((rule_of[id(p)], cls[r], cls[s], star.is_new(r_dart)))
        return sender_matches(p, ctx, s, r_dart, min_degree)

    monkeypatch.setattr(discharge_module, "sender_matches", counted)
    apply_rule_table(a, make_ledger(a), table)
    darts = sum(map(len, star.rotation.values()))
    assert 0 < len(calls) < darts
    assert len(calls) == len(set(calls))


def test_a_discharge_resolves_each_rule_threshold_at_most_once(monkeypatch):
    """A rule's sender threshold is fixed once the ledger's delta is known,
    so the rule table resolves it once per call, not once per dart."""
    table = default_rules()
    g, e = gen_planar_triangulation(300, seed=1)
    a = build_g_star(e, g)
    calls = []

    def counted(value, delta):
        calls.append(value)
        return resolve_threshold(value, delta)

    monkeypatch.setattr(ruletable_module, "resolve_threshold", counted)
    monkeypatch.setattr(discharge_module, "resolve_threshold", counted, raising=False)
    ledger = discharge(a, table)
    assert ledger.transfers
    assert 0 < len(calls) <= len(table.rules)


@pytest.mark.parametrize("order", [("pinned", "free"), ("free", "pinned")])
def test_pinned_and_class_free_rules_claiming_one_dart_raise(order):
    receivers = {"pinned": {"kind": "true"}, "free": {}}
    table = rule_table_from_dict(
        {
            "rules": [
                {"id": rid, "sender": {}, "receiver": receivers[rid], "amount": "1/3"}
                for rid in order
            ]
        }
    )
    a = wrapped_quad()
    with pytest.raises(DischargeError, match=", ".join(order)):
        apply_rule_table(a, make_ledger(a), table)


@example([])
@example([Fraction(-1, 2), Fraction(1, 3), Fraction(5, 6), Fraction(-7), Fraction(2, 4)])
@given(st.lists(st.fractions(max_denominator=12)))
def test_exact_sum_equals_fraction_sum(xs):
    assert discharge_module._exact_sum(xs) == sum(xs, Fraction(0))


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


def test_semi_fan_center_outside_g_star_is_rejected():
    a = get_config("fan-run").build()
    led = discharge(a)
    with pytest.raises(DischargeError, match="center 999 is not a vertex of G"):
        semi_fans(a, led, center=999)


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


def reference_semi_fans(center, rot, sent):
    """semi_fans' run detection as it stood before the one-scan rewrite:
    rewind to each run's start, walk it forward, and mark it seen."""
    if not sent:
        return [SemiFan(center=center, positions=(), total=Fraction(0), faces=1)]
    k = len(rot)
    out = [sent.get(d, Fraction(0)) for d in rot]
    if all(x > 0 for x in out):
        total = sum(out, Fraction(0))
        return [SemiFan(center=center, positions=tuple(range(k)), total=total, faces=k)]
    fans = []
    i = 0
    seen = set()
    while i < k:
        if out[i] > 0 and i not in seen:
            start = i
            while out[(start - 1) % k] > 0:
                start = (start - 1) % k
            run = []
            j = start
            while out[j] > 0:
                run.append(j)
                seen.add(j)
                j = (j + 1) % k
            total = sum((out[p] for p in run), Fraction(0))
            fans.append(
                SemiFan(center=center, positions=tuple(run), total=total, faces=len(run) + 1)
            )
        i += 1
    return fans


HUB_DEGREE = 12
SEND_AMOUNTS = st.sampled_from([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
IDLE = []
PAYS = [Fraction(1, 3)]


@example([IDLE] * HUB_DEGREE)  # a quiet hub
@example([PAYS] * HUB_DEGREE)  # the whole wheel pays
@example([PAYS] * 2 + [IDLE] * (HUB_DEGREE - 4) + [PAYS] * 2)  # one run wraps past 0
@example([IDLE] + [PAYS] * (HUB_DEGREE - 2) + [IDLE])  # idle at both ends
@example([PAYS, IDLE] * (HUB_DEGREE // 2))  # every other edge
@given(st.lists(st.lists(SEND_AMOUNTS, max_size=2), min_size=HUB_DEGREE, max_size=HUB_DEGREE))
def test_semi_fans_match_the_rewinding_reference(pattern):
    # pattern[i] lists the transfers the hub makes through rotation position i
    e, g = wheel_plane(HUB_DEGREE)
    a = AugmentedGraph(g=g, base=e, star=e, insertions=[])
    led = make_ledger(a)
    rot = a.star.rotation[0]
    sent = {}
    for d, amounts in zip(rot, pattern):
        for amount in amounts:
            led.transfers.append(TransferRecord("x", 0, a.star.other_end(d), amount, dart=d))
            sent[d] = sent.get(d, Fraction(0)) + amount
    assert semi_fans(a, led, center=0) == reference_semi_fans(0, rot, sent)


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


def test_golden_large_drawing_reports():
    # hubs of degree above 100 and final charges over up to three
    # denominators, which the small corpus above never reaches
    drawings = []
    for s in (0, 1):
        drawings.append(gen_crossed(gen_toroidal_grid(24, 24)[1], 70, seed=s))
        drawings.append(gen_planar_triangulation(1000, seed=s)[1])
    instances = [build_g_star(e, true_graph_of(e)) for e in drawings]
    assert _pin_digest(instances) == (
        "19ea4b2236e3ee22191231eaba1dd00d5c578f4d9219ac682897e8db8fbc97d3"
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


# -- references for the per-element fast paths -------------------------------


def _reference_element_key(e):
    """The sort key final_report used to order its charges by."""
    if isinstance(e, tuple):
        return (1, e[1] if len(e) > 1 else -1)
    return (0, e)


def _reference_charge_order(ledger):
    final = ledger.final()
    ordered = sorted(final.items(), key=lambda ec: (ec[1] >= 0, _reference_element_key(ec[0])))
    return [element_label(e) for e, _ in ordered]


def _reference_classification(a):
    """classify_vertices with one fresh VertexClass per vertex."""
    table = {}
    star = a.star
    for v in star.vertices():
        kind = star.vertex_kind[v]
        d2 = star.degree(v)
        d1 = a.g.degree(v) if kind == "true" else None
        big = kind == "true" and ((d1 == 3 and d2 == 5) or d2 >= 6)
        table[v] = VertexClass(
            d1=d1,
            d2=d2,
            kind=kind,
            size_class="big" if big else "small",
            new_incident=any(star.is_new(d) for d in star.rotation[v]),
        )
    return table


@pytest.fixture(scope="module")
def corpus_and_catalog():
    """The acceptance corpus, then every catalog configuration."""
    instances = [build_g_star(e, true_graph_of(e)) for e in _acceptance_drawings()]
    return instances + [cfg.build() for cfg in all_configs()]


def bench_size_instances():
    """One drawing of each benchmark workload, at the benchmark's size."""
    drawings = [
        gen_planar_triangulation(3000, seed=1)[1],
        gen_crossed(gen_toroidal_grid(24, 24)[1], 70, seed=1),
    ]
    return [build_g_star(e, true_graph_of(e)) for e in drawings]


def test_final_report_orders_charges_as_the_reference_sort(corpus_and_catalog):
    ledgers = [discharge(a) for a in corpus_and_catalog + bench_size_instances()]
    for ledger in ledgers:
        assert list(final_report(ledger)["charges"]) == _reference_charge_order(ledger)
    # the bench-size stacked drawing ends with charges of both signs
    assert {c.numerator < 0 for c in ledgers[-2].final().values()} == {True, False}


def test_r1_pool_matches_a_sequential_sum(corpus_and_catalog):
    pools = []
    for a in corpus_and_catalog + [r1_one_patron(), build_g_star(*wheel_plane(5))]:
        ledger = make_ledger(a)
        apply_r1(a, ledger)
        pool = Fraction(0)
        for t in ledger.transfers:
            if t.target == POOL:
                assert t.amount == Fraction(1, 2)
                pool += t.amount
            else:
                assert t.source == POOL and t.amount == 1
                pool -= t.amount
        assert ledger.pool == pool
        assert ledger.pool_flagged == (pool < 0)
        pools.append(pool)
    # r1_one_patron, the wheel and drawings of the corpus end in deficit
    assert pools[-2:] == [Fraction(-1, 2), -4]
    assert min(pools[:-2]) < 0


def test_vertex_classes_are_shared_per_distinct_class(corpus_and_catalog):
    for a in corpus_and_catalog:
        reference = _reference_classification(a)
        assert list(a.classification.items()) == list(reference.items())
        shared = {}
        for c in a.classification.values():
            assert shared.setdefault(c, c) is c
        # the report reads the classes alone, so sharing leaves it unchanged
        fresh = copy.copy(a)
        fresh.classification = reference
        assert json.dumps(augment_report(a)) == json.dumps(augment_report(fresh))


# -- final charges and the report against a per-transfer reference -----------


def _reference_final(ledger):
    """final() as one Fraction step per end of every transfer."""
    out = dict(ledger.initial)
    for t in ledger.transfers:
        if t.source != POOL:
            out[t.source] -= t.amount
        if t.target != POOL:
            out[t.target] += t.amount
    return out


def _reference_frac_str(x):
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _reference_row(t):
    return {
        "rule": t.rule,
        "from": element_label(t.source),
        "to": element_label(t.target),
        "amount": _reference_frac_str(t.amount),
    }


def _reference_report(ledger):
    """final_report rendering every charge and every row afresh."""
    final = _reference_final(ledger)
    negative = [(e, c) for e, c in final.items() if c < 0]
    ordered = negative + [(e, c) for e, c in final.items() if c >= 0]
    initial_total = sum(ledger.initial.values(), Fraction(0))
    final_total = sum(final.values(), Fraction(0)) + ledger.pool
    return {
        "surface": ledger.a.star.surface,
        "delta": ledger.delta,
        "applied": list(ledger.applied),
        "initial_total": _reference_frac_str(initial_total),
        "final_total": _reference_frac_str(final_total),
        "conserved": final_total == initial_total,
        "pool": _reference_frac_str(ledger.pool),
        "pool_flagged": ledger.pool_flagged,
        "negative_count": len(negative),
        "charges": {element_label(e): _reference_frac_str(c) for e, c in ordered},
        "transfers": [_reference_row(t) for t in ledger.transfers],
        "skipped": [_reference_row(t) for t in ledger.skipped],
    }


def g_star_of(e):
    return build_g_star(e, true_graph_of(e))


SMALL_G_STARS = [
    wrapped_quad(),
    wrapped_grid(3, 3),
    get_config("guard-stop").build(),
    g_star_of(gen_planar_triangulation(12, seed=3)[1]),
]
# sampled_from hands out these very objects, so amounts are shared as a
# rule's are; st.fractions draws a fresh object every time
SHARED_AMOUNTS = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 7))
AMOUNTS = st.one_of(
    st.sampled_from(SHARED_AMOUNTS),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.sampled_from([(5, 7), (4, 13), (-9, 11)]).map(lambda nd: Fraction(*nd)),
)


@st.composite
def random_ledgers(draw):
    """A ledger of a small G*, its real transfers or none, then random
    ones between its elements and the pool, a few elements hit often."""
    a = draw(st.sampled_from(SMALL_G_STARS))
    ledger = discharge(a) if draw(st.booleans()) else make_ledger(a)
    elements = list(ledger.initial) + [POOL]
    element = st.one_of(st.sampled_from(elements[:2] + [POOL]), st.sampled_from(elements))
    record = st.builds(
        TransferRecord,
        st.sampled_from(["R1", "R2", "x"]),
        element,
        element,
        AMOUNTS,
        st.none() | st.integers(0, 40),
    )
    ledger.transfers += draw(st.lists(record, max_size=40))
    ledger.skipped += draw(st.lists(record, max_size=4))
    ledger.pool = draw(st.fractions(min_value=-5, max_value=5, max_denominator=12))
    ledger.pool_flagged = ledger.pool < 0
    return ledger


@settings(deadline=None)
@example(make_ledger(SMALL_G_STARS[0]))
@given(random_ledgers())
def test_final_and_report_match_the_per_transfer_reference(ledger):
    assert list(ledger.final().items()) == list(_reference_final(ledger).items())
    # the unsorted text pins key order, labels and every rendered value
    assert json.dumps(final_report(ledger)) == json.dumps(_reference_report(ledger))


CHI = {"plane": 2, "torus": 0}


def test_conserved_checks_the_initial_charges_against_the_drawing():
    # a wrong initial charge moves the initial and final totals alike, so
    # only the surface's -6 chi tells the run apart from a conserved one
    ledger = discharge(g_star_of(gen_crossed(gen_toroidal_grid(6, 6)[1], 5, seed=3)))
    assert final_report(ledger)["conserved"] is True
    ledger.initial[0] += 1
    report = final_report(ledger)
    assert (report["initial_total"], report["final_total"]) == ("1", "1")
    assert report["conserved"] is False


@settings(max_examples=60, deadline=None)
@given(GENERATED_DRAWINGS)
def test_charges_add_up_to_the_euler_count_and_every_rule_balances(e):
    a = g_star_of(e)
    star = a.star
    ledger = discharge(a)
    # V - E + F from the drawing itself, not from the ledger
    euler = len(star.rotation) - len(star.twin) // 2 + len(star.faces())
    assert euler == CHI[star.surface]
    final = ledger.final()
    assert sum(final.values(), Fraction(0)) + ledger.pool == -6 * euler
    report = final_report(ledger)
    rendered = sum(map(Fraction, report["charges"].values()), Fraction(0))
    assert rendered + Fraction(report["pool"]) == -6 * euler
    assert report["final_total"] == str(-6 * euler)
    # per rule, the charge its transfers add to the elements is what they
    # take from the pool, whose balance R1 keeps by counting, not by record
    added = {}
    for t in ledger.transfers:
        x = added.get(t.rule, Fraction(0))
        if t.source != POOL:
            x -= t.amount
        if t.target != POOL:
            x += t.amount
        added[t.rule] = x
    assert set(added) <= {"R1", "R2", "R3"} | {rule.id for rule in default_rules().rules}
    for rule in added.keys() | {"R1"}:
        assert added.get(rule, 0) + (ledger.pool if rule == "R1" else 0) == 0, rule


# -- corners ------------------------------------------------------------------


def _reference_corners(star):
    """Corner i at v, for every vertex: the face holding rotation dart i."""
    face_of = {}
    for fi, f in enumerate(star.faces()):
        for d in f:
            face_of[d] = fi
    return {v: [face_of[d] for d in rot] for v, rot in star.rotation.items()}


def test_corners_match_an_eager_recount(corpus_and_catalog):
    grids = [g_star_of(gen_crossed(gen_toroidal_grid(8, 8)[1], 12, seed=s)) for s in (1, 2, 3)]
    for a in corpus_and_catalog + grids:
        want = _reference_corners(a.star)
        ctx = MatchContext(a)
        # read in reverse vertex order, each twice
        for v in reversed(list(want)):
            assert ctx.corner[v] == want[v]
            assert ctx.corner[v] == want[v]
        assert dict(ctx.corner) == want


def test_a_discharge_lists_corners_only_where_they_are_read():
    a = g_star_of(gen_planar_triangulation(300, seed=1)[1])
    ledger = discharge(a)
    star, cls, ctx = a.star, a.classification, ledger.ctx
    # no crossing, so guarded_crossing reads no corner
    assert set(star.vertex_kind.values()) == {"true"}
    table = default_rules()

    def read_by_the_table(r):
        # r's class admits a rule whose faces span its rotation, and a
        # sender side of some rule its class admits holds at one of its darts
        c = cls[r]
        rules = [rule for rule in table.rules if _class_matches(rule.receiver, c)]
        if not any(len(rule.receiver.faces or ()) == c.d2 for rule in rules):
            return False
        return any(
            sender_matches(
                rule.sender, ctx, star.other_end(d), d,
                resolve_threshold(rule.sender.min_degree, ledger.delta),
            )
            for d in star.rotation[r]
            for rule in rules
        )

    r3 = {v for v, c in cls.items() if c.kind == "true" and c.d1 == c.d2 == 5}
    read = r3 | set(filter(read_by_the_table, star.vertices()))
    assert set(ctx.corner) == read
    assert r3 and len(read) < len(star.rotation) // 4

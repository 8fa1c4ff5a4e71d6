import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalcolor import augment
from totalcolor.augment import (
    AugmentedGraph,
    InsertionRecord,
    augment_report,
    build_g_star,
    check_fixpoint,
)
from totalcolor.configs import all_configs
from totalcolor.discharge import check_claims, discharge, final_report
from totalcolor.embedding import (
    CROSSING,
    EmbeddedGraph,
    check_two_cell,
    dump_embedding,
    euler_characteristic,
    parse_embedding,
    seg_key,
)
from totalcolor.gen import (
    gen_crossed,
    gen_high_degree_P_drawing,
    gen_planar_triangulation,
    gen_toroidal_grid,
    true_graph_of,
)

from totalcolor.ruletable import MatchContext

from helpers import (
    GENERATED_DRAWINGS,
    c6_plane,
    complete_graph,
    embed,
    hexagon_two_crossings,
    quad_with_crossing,
    torus_grid,
    wheel_plane,
)


def k5_crossed():
    faces = [
        (0, 5, 3), (5, 1, 3), (0, 4, 5), (5, 4, 1),
        (1, 2, 3), (0, 3, 2), (1, 4, 2), (0, 2, 4),
    ]
    g = complete_graph(5)
    return embed(faces, "plane", g, crossings={5}), g


def test_all_triangles_is_noop():
    for e, g in [
        (embed([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)], "plane", complete_graph(4)),
         complete_graph(4)),
        k5_crossed(),
    ]:
        a = build_g_star(e, g)
        assert a.insertions == []
        assert a.new_edge_count() == 0
        assert a.star.segments() == e.segments()


def test_c6_insertion_trace():
    e, g = c6_plane()
    a = build_g_star(e, g)
    assert [r.pair for r in a.insertions] == [
        (0, 2), (0, 3), (0, 4), (0, 2), (0, 3), (0, 4),
    ]
    assert a.star.face_census() == {3: 8}
    got = {v: (c.d1, c.d2, c.size_class) for v, c in a.classification.items()}
    assert got == {
        0: (2, 8, "big"),
        1: (2, 2, "small"),
        2: (2, 4, "small"),
        3: (2, 4, "small"),
        4: (2, 4, "small"),
        5: (2, 2, "small"),
    }


def test_c6_parallel_new_edges():
    e, g = c6_plane()
    a = build_g_star(e, g)
    star = a.star
    pairs = {}
    for key in a.new_segments():
        ends = tuple(sorted(star.owner[d] for d in key))
        pairs.setdefault(ends, []).append(key)
        assert a.star.is_new(key[0])
    # each chord (0,2),(0,3),(0,4) appears twice: once per hexagon side
    assert {ends: len(ks) for ends, ks in pairs.items()} == {
        (0, 2): 2, (0, 3): 2, (0, 4): 2,
    }


def test_hexagon_center_quad_gets_one_new_edge():
    e, g = hexagon_two_crossings()
    a = build_g_star(e, g)
    star = a.star
    new_ends = sorted(
        tuple(sorted(star.owner[d] for d in key)) for key in a.new_segments()
    )
    assert (2, 5) in new_ends  # the alternating central 4-face was closed
    assert a.star.face_census() == {3: 12}
    assert star.degree(6) == 4 and star.degree(7) == 4
    assert a.new_edge_count() == 4  # one central + three in the outer hexagon


def test_wheel_gives_35_vertex():
    e, g = wheel_plane(5)
    a = build_g_star(e, g)
    assert [r.pair for r in a.insertions] == [(1, 3), (1, 4)]
    c = a.classification
    assert (c[1].d1, c[1].d2, c[1].size_class) == (3, 5, "big")
    assert (c[0].d1, c[0].d2, c[0].size_class) == (5, 5, "small")
    assert all(c[v].size_class == "small" for v in (2, 3, 4, 5))


def test_grid_triangulation():
    e, g = torus_grid(3, 3)
    a = build_g_star(e, g)
    assert a.new_edge_count() == 9
    assert a.star.face_census() == {3: 18}
    assert euler_characteristic(a.star) == 0


@pytest.mark.parametrize(
    "make", [c6_plane, hexagon_two_crossings, lambda: torus_grid(3, 4), wheel_plane]
)
def test_fixpoint_and_euler_preserved(make):
    e, g = make()
    a = build_g_star(e, g)
    assert check_fixpoint(a)
    assert euler_characteristic(a.star) == euler_characteristic(e)
    assert len(a.star.faces()) == len(e.faces()) + len(a.insertions)


@pytest.mark.parametrize(
    "make", [c6_plane, hexagon_two_crossings, lambda: torus_grid(3, 4), wheel_plane]
)
def test_new_edges_join_small_true_vertices(make):
    e, g = make()
    a = build_g_star(e, g)
    for rec in a.insertions:
        u, v = rec.pair
        assert g.degree(u) <= 5 and g.degree(v) <= 5
        assert a.star.vertex_kind[u] == "true" and a.star.vertex_kind[v] == "true"


@pytest.mark.parametrize("make", [c6_plane, lambda: torus_grid(3, 3), wheel_plane])
def test_d2_minus_d1_counts_incident_new_edges(make):
    e, g = make()
    a = build_g_star(e, g)
    per_vertex: dict = {}
    for key in a.new_segments():
        for d in key:
            v = a.star.owner[d]
            per_vertex[v] = per_vertex.get(v, 0) + 1
    for v, c in a.classification.items():
        if c.kind == "true":
            assert c.d2 - c.d1 == per_vertex.get(v, 0)


def test_adjacent_pair_takes_a_parallel_new_edge():
    e, g = quad_with_crossing()
    # the outer square face's only non-consecutive pairs are the two
    # already-crossing diagonals; one of them is doubled by a parallel
    # new edge
    a = build_g_star(e, g)
    assert a.new_edge_count() == 1
    assert a.insertions[0].pair in ((0, 2), (1, 3))
    assert g.has_edge(*a.insertions[0].pair)


def test_augment_report_is_json_ready():
    e, g = wheel_plane(5)
    a = build_g_star(e, g)
    rep = augment_report(a)
    text = json.dumps(rep)
    back = json.loads(text)
    assert back["new_edges"] == 2
    assert back["face_census"] == {"3": 8}
    assert back["classification"]["1"]["size_class"] == "big"
    assert [tuple(i["pair"]) for i in back["insertions"]] == [(1, 3), (1, 4)]


def rescan_g_star(gd, g):
    """Reference insertion loop: rescan every face after each insertion and
    split the eligible face holding the smallest dart."""
    rotation = {v: list(rot) for v, rot in gd.rotation.items()}
    twin = dict(gd.twin)
    origins = dict(gd.segment_origin)
    owner = dict(gd.owner)
    faces = [list(f) for f in gd.faces()]
    next_dart = max(twin, default=-1) + 1
    log = []
    while True:
        eligible = [
            (min(fb), fi, pick)
            for fi, fb in enumerate(faces)
            if len(fb) >= 4
            and (pick := augment._eligible_pair(fb, owner, gd.vertex_kind, g))
        ]
        if not eligible:
            break
        _, fi, (i, j, u, v) = min(eligible)
        fb = faces[fi]
        a, b = next_dart, next_dart + 1
        next_dart += 2
        rotation[u].insert(rotation[u].index(fb[i]), a)
        rotation[v].insert(rotation[v].index(fb[j]), b)
        twin[a], twin[b] = b, a
        owner[a], owner[b] = u, v
        origins[(a, b)] = None
        face = tuple(owner[d] for d in fb)
        log.append(InsertionRecord(step=len(log), face=face, pair=(min(u, v), max(u, v))))
        faces[fi] = [a] + fb[j:] + fb[:i]
        faces.append([b] + fb[i:j])
    star = EmbeddedGraph(
        {v: tuple(rot) for v, rot in rotation.items()}, twin, gd.vertex_kind,
        gd.surface, origins,
    )
    return AugmentedGraph(g, gd, star, log)


def acceptance_drawings():
    """The 100 seeded drawings that acceptance criteria 1-3 sweep."""
    for s in range(40):
        _, e = gen_toroidal_grid(3 + s % 3, 3 + (s // 3) % 3)
        yield gen_crossed(e, 1 + s % 3, seed=s)
    for s in range(30):
        yield gen_planar_triangulation(5 + s % 12, seed=s)[1]
    for s in range(30):
        delta = 11 + s % 3
        yield gen_high_degree_P_drawing(delta, 2 * delta + 1 + (s % 4) * 20, seed=s)[1]


def crossed_grid(side, pairs, seed=1):
    _, e = gen_toroidal_grid(side, side)
    e = gen_crossed(e, pairs, seed=seed)
    return e, true_graph_of(e)


def test_golden_g_star_dumps():
    # sha256 of each G*'s dump, its faces' vertex walks in faces() order
    # and its insertion log, which a change to how G* is built must
    # reproduce exactly
    drawings = list(acceptance_drawings())
    drawings += [crossed_grid(24, 70, seed=s)[0] for s in (0, 1)]
    drawings.append(crossed_grid(80, 800)[0])
    h = hashlib.sha256()
    for e in drawings:
        a = build_g_star(e, true_graph_of(e))
        star = a.star
        h.update(dump_embedding(star).encode())
        h.update(json.dumps([star.face_vertices(f) for f in star.faces()]).encode())
        h.update(json.dumps([(r.step, r.face, r.pair) for r in a.insertions]).encode())
        h.update(b"\0")
    assert h.hexdigest() == (
        "ff94cb367ebf30d12176f374aa78398aec8fd1f72105a275a141a84e4364ecc1"
    )


def test_heap_loop_matches_full_rescan():
    cases = [(e, true_graph_of(e)) for e in acceptance_drawings()]
    cases += [c6_plane(), hexagon_two_crossings(), wheel_plane(5), wheel_plane(7)]
    cases.append(crossed_grid(12, 20))
    assert len(cases) == 105
    inserted = 0
    for e, g in cases:
        a = build_g_star(e, g)
        ref = rescan_g_star(e, g)
        assert augment_report(a) == augment_report(ref)
        assert a.star.rotation == ref.star.rotation
        inserted += len(a.insertions)
    assert inserted > 0


def test_each_face_tested_once(monkeypatch):
    e, g = crossed_grid(24, 70)
    calls = []
    inner = augment._eligible_pair

    def counting(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(augment, "_eligible_pair", counting)
    a = build_g_star(e, g)
    assert len(a.insertions) > 0
    assert len(calls) <= len(e.faces()) + 2 * len(a.insertions)


def test_zero_insertion_op_builds_and_traces_one_drawing(monkeypatch):
    # counted, not timed: the drawing op (parse, G*, discharge, claims,
    # report) validates and traces one drawing in full, the parsed one.
    # With no insertion G* is the parsed object itself; with insertions G*
    # is a chord edit of it, checked locally and handed its faces.
    counts = Counter()
    validate, faces = EmbeddedGraph._validate_structure, EmbeddedGraph.faces

    def counted_validate(self):
        counts["validated"] += 1
        validate(self)

    def counted_faces(self):
        counts["traced"] += self._faces is None
        return faces(self)

    monkeypatch.setattr(EmbeddedGraph, "_validate_structure", counted_validate)
    monkeypatch.setattr(EmbeddedGraph, "faces", counted_faces)

    def op(e):
        text = dump_embedding(e)
        counts.clear()
        e = parse_embedding(text)
        a = build_g_star(e, true_graph_of(e))
        ledger = discharge(a)
        check_claims(a, ledger)
        json.dumps(final_report(ledger), sort_keys=True)
        return a, dict(counts)

    a, seen = op(gen_planar_triangulation(300, seed=1)[1])
    assert a.insertions == [] and a.star is a.base
    assert seen == {"validated": 1, "traced": 1}
    a, seen = op(crossed_grid(8, 6)[0])
    assert a.insertions and a.star is not a.base
    assert seen == {"validated": 1, "traced": 1}


def _reparsed_g_star(e):
    """G* of e, dumped with its "-> new" origins and parsed back: a base
    drawing with new segments that gets no insertion."""
    a = build_g_star(e, true_graph_of(e))
    return build_g_star(parse_embedding(dump_embedding(a.star)), a.g)


_BASE_DRAWINGS = st.one_of(
    st.builds(
        lambda side, pairs, seed: crossed_grid(side, pairs, seed)[0],
        st.integers(3, 8),
        st.integers(0, 6),
        st.integers(0, 10**6),
    ),
    st.builds(
        lambda size, seed: gen_planar_triangulation(size, seed)[1],
        st.integers(3, 40),
        st.integers(0, 10**6),
    ),
)
AUGMENTED_GRAPHS = st.one_of(
    _BASE_DRAWINGS.map(lambda e: build_g_star(e, true_graph_of(e))),
    st.sampled_from(all_configs()).map(lambda cfg: cfg.build()),
    _BASE_DRAWINGS.map(_reparsed_g_star),
)


def assert_star_passes_a_full_rebuild(a):
    # G* is a chord edit of its base, checked locally: the full
    # constructor must accept it, trace the faces it was handed, and derive
    # the same owners and origins
    star = a.star
    seeded = star._faces
    assert seeded is not None
    fresh = EmbeddedGraph(
        star.rotation, star.twin, star.vertex_kind, star.surface, star.segment_origin
    )
    check_two_cell(fresh)
    assert fresh.faces() == seeded
    assert fresh.owner == star.owner
    assert fresh.segment_origin == star.segment_origin


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    GENERATED_DRAWINGS.map(lambda e: build_g_star(e, true_graph_of(e))),
    _BASE_DRAWINGS.map(_reparsed_g_star),
))
def test_generated_g_star_passes_a_full_rebuild(a):
    assert_star_passes_a_full_rebuild(a)


@pytest.mark.parametrize("cfg", all_configs(), ids=lambda cfg: cfg.name)
def test_catalog_g_star_passes_a_full_rebuild(cfg):
    built = cfg.build()
    a = build_g_star(built.star, built.g)
    assert a.insertions
    assert_star_passes_a_full_rebuild(a)


@settings(max_examples=60, deadline=None)
@given(AUGMENTED_GRAPHS)
def test_new_segment_and_crossing_facts_match_a_recount(a):
    star = a.star
    new = {d for d in star.twin if star.segment_origin[seg_key(d, star.twin)] is None}
    assert [star.is_new(d) for d in star.twin] == [d in new for d in star.twin]
    assert {v: c.new_incident for v, c in a.classification.items()} == {
        v: any(d in new for d in star.rotation[v]) for v in star.vertices()
    }
    ctx = MatchContext(a)
    assert ctx.face_new == [any(d in new for d in f) for f in star.faces()]
    assert ctx.crossing_nbrs == {
        v: sum(star.vertex_kind[star.other_end(d)] == CROSSING for d in rot)
        for v, rot in star.rotation.items()
    }
    if not a.insertions:
        assert a.star is a.base

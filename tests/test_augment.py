import json

import pytest

from totalcolor import augment
from totalcolor.augment import (
    AugmentedGraph,
    InsertionRecord,
    augment_report,
    build_g_star,
    check_fixpoint,
    is_new_edge,
)
from totalcolor.embedding import (
    EmbeddedGraph,
    EmbedError,
    euler_characteristic,
    from_face_cycles,
)
from totalcolor.gen import (
    gen_crossed,
    gen_high_degree_P_drawing,
    gen_planar_triangulation,
    gen_toroidal_grid,
    true_graph_of,
)

from helpers import (
    c6_plane,
    complete_graph,
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
    return from_face_cycles(faces, "plane", crossing_vertices={5}, g=g), g


def test_all_triangles_is_noop():
    for e, g in [
        (from_face_cycles([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)], "plane"),
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
    assert a.face_census() == {3: 8}
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
        assert is_new_edge(a, key)
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
    assert a.face_census() == {3: 12}
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
    assert a.face_census() == {3: 18}
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


def test_is_new_edge_unknown_segment():
    e, g = c6_plane()
    a = build_g_star(e, g)
    assert not is_new_edge(a, (0, 10))  # original hexagon segment
    with pytest.raises(EmbedError, match="unknown segment"):
        is_new_edge(a, (999, 1000))


def test_join_adjacent_switch():
    e, g = quad_with_crossing()
    # the outer square face's only non-consecutive pairs are the two
    # already-crossing diagonals; the switch decides whether they may be
    # doubled by a parallel new edge
    a_default = build_g_star(e, g)
    assert a_default.new_edge_count() == 1
    assert a_default.insertions[0].pair in ((0, 2), (1, 3))
    a_strict = build_g_star(e, g, join_adjacent=False)
    assert a_strict.new_edge_count() == 0
    assert check_fixpoint(a_strict, join_adjacent=False)


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


def rescan_g_star(gd, g, join_adjacent=True):
    """Reference insertion loop: rescan every face after each insertion and
    split the eligible face holding the smallest dart."""
    rotation = {v: list(rot) for v, rot in gd.rotation.items()}
    twin = dict(gd.twin)
    origins = dict(gd.segment_origin)
    owner = dict(gd.owner)
    faces = [list(f.boundary) for f in gd.faces()]
    next_dart = max(twin, default=-1) + 1
    log = []
    while True:
        eligible = [
            (min(fb), fi, pick)
            for fi, fb in enumerate(faces)
            if len(fb) >= 4
            and (pick := augment._eligible_pair(fb, owner, gd.vertex_kind, g, join_adjacent))
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


def test_heap_loop_matches_full_rescan():
    cases = [(e, true_graph_of(e)) for e in acceptance_drawings()]
    cases += [c6_plane(), hexagon_two_crossings(), wheel_plane(5), wheel_plane(7)]
    cases.append(crossed_grid(12, 20))
    assert len(cases) == 105
    inserted = 0
    for e, g in cases:
        for join_adjacent in (True, False):
            a = build_g_star(e, g, join_adjacent)
            ref = rescan_g_star(e, g, join_adjacent)
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

import random
import re
from itertools import combinations

import pytest
from hypothesis import given

from totalcolor.graphs import (
    GraphError,
    add_edge,
    build_graph,
    check_property_P,
    delete_edge,
    dump_edge_list,
    edge_key,
    find_induced_diamonds,
    find_k4s,
    parse_edge_list,
)
from totalcolor.gen import (
    gen_crossed,
    gen_high_degree_P,
    gen_planar_triangulation,
    gen_toroidal_grid,
    true_graph_of,
)
from totalcolor.reduce import enum_graph_masks, graph_from_mask

from helpers import (
    brute_diamonds,
    brute_k4s,
    complete_graph,
    cycle_graph,
    graphs_on_range,
    random_graph,
)


def test_build_k4():
    g = complete_graph(4)
    assert len(g.vertices) == 4
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert g.num_edges() == 6


def test_build_rejects_loop():
    with pytest.raises(GraphError, match="loop"):
        build_graph([(1, 1)])


def test_build_rejects_duplicate():
    with pytest.raises(GraphError, match="duplicate"):
        build_graph([(1, 2), (2, 1)])


def test_isolated_vertices_declared():
    g = build_graph([(0, 1)], vertices=range(4))
    assert g.vertices == (0, 1, 2, 3)
    assert g.degree(3) == 0


def test_delete_edge_diamond_degrees():
    g = delete_edge(complete_graph(4), (0, 1))
    assert sorted(g.degree(v) for v in g.vertices) == [2, 2, 3, 3]


def test_delete_edge_keeps_endpoints():
    g = delete_edge(build_graph([(0, 1)]), (0, 1))
    assert g.vertices == (0, 1)
    assert g.num_edges() == 0


def test_delete_edge_c5_gives_path():
    g = delete_edge(cycle_graph(5), (0, 4))
    assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 2, 2, 2]


def test_delete_absent_edge_rejected():
    with pytest.raises(GraphError, match="not in graph"):
        delete_edge(cycle_graph(5), (0, 2))


def test_delete_then_add_restores():
    g = random_graph(8, 0.5, seed=7)
    e = g.edges()[3]
    assert add_edge(delete_edge(g, e), e) == g


def test_add_edge_rejects_loops_and_duplicates():
    g = cycle_graph(4)
    with pytest.raises(GraphError, match=re.escape("loop (2,2)")):
        add_edge(g, (2, 2))
    with pytest.raises(GraphError, match=re.escape("duplicate edge (1,0)")):
        add_edge(g, (1, 0))


def test_add_edge_brings_in_a_fresh_vertex():
    g = add_edge(build_graph([(0, 2)], vertices=range(3)), (5, 1))
    assert g.vertices == (0, 1, 2, 5)
    assert g.adj == {0: (2,), 1: (5,), 2: (0,), 5: (1,)}


@given(graphs_on_range())
def test_queries_read_the_rows_and_edits_share_them(g):
    edges = set(g.edges())
    absent = len(g.vertices)
    for u in g.vertices:
        assert not g.has_edge(u, absent) and not g.has_edge(absent, u)
        for v in g.vertices:
            assert g.has_edge(u, v) == (edge_key(u, v) in edges)
            # a reference kept here: the set intersection, sorted
            common = tuple(sorted(set(g.neighbors(u)) & set(g.neighbors(v))))
            assert g.common_neighbors(u, v) == common
    for u, v in edges:
        h = delete_edge(g, (u, v))
        assert set(h.edges()) == edges - {(u, v)}
        assert all(h.adj[x] is g.adj[x] for x in g.vertices if x not in (u, v))


def test_find_k4s_examples():
    assert len(find_k4s(complete_graph(4))) == 1
    assert len(find_k4s(complete_graph(5))) == 5
    assert find_k4s(cycle_graph(6)) == []


def test_find_diamonds_k4_minus_edge():
    g = delete_edge(complete_graph(4), (0, 1))
    (w,) = find_induced_diamonds(g)
    assert w.hub_pair == (2, 3)  # the remaining degree-3 pair
    assert w.wing_pair == (0, 1)


def test_find_diamonds_k4_excluded():
    assert find_induced_diamonds(complete_graph(4)) == []


def test_find_diamonds_shared_edge_triangles():
    # two triangles glued along (0,1); wings 2 and 3 nonadjacent
    g = build_graph([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    (w,) = find_induced_diamonds(g)
    assert w.hub_pair == (0, 1)
    assert w.wing_pair == (2, 3)


@pytest.mark.parametrize("seed", range(12))
def test_k4_and_diamond_match_brute_force(seed):
    g = random_graph(n=6 + seed % 5, p=0.3 + 0.05 * (seed % 7), seed=seed)
    assert find_k4s(g) == brute_k4s(g)
    got = [(w.hub_pair, w.wing_pair) for w in find_induced_diamonds(g)]
    assert got == brute_diamonds(g)


def _relabelled(g, seed):
    """g with its vertex ids shuffled, so its degree order is no id order."""
    ids = list(g.vertices)
    random.Random(seed).shuffle(ids)
    new_id = dict(zip(g.vertices, ids))
    return build_graph([(new_id[u], new_id[v]) for u, v in g.edges()])


def test_find_k4s_matches_brute_force_under_any_degree_order():
    # the K4 listing ranks vertices by (degree, id): every family here but
    # the complete graphs has a ranking that is not its id order
    stacked = [
        _relabelled(gen_planar_triangulation(30, seed=seed)[0], seed) for seed in range(3)
    ]
    _, base = gen_toroidal_grid(5, 5)
    crossed = [true_graph_of(gen_crossed(base, 6, seed=seed)) for seed in range(3)]
    dense = [
        random_graph(n=8 + seed % 6, p=0.3 + 0.05 * (seed % 7), seed=seed)  # p up to 0.6
        for seed in range(10)
    ]
    for g in stacked + crossed:
        assert sorted(g.vertices, key=lambda v: (g.degree(v), v)) != list(g.vertices)
        assert find_k4s(g)
    for g in [complete_graph(n) for n in (5, 6, 7)] + stacked + crossed + dense:
        assert find_k4s(g) == brute_k4s(g)


def test_property_P_k5_holds():
    assert check_property_P(complete_graph(5)).holds


def test_property_P_k4_with_pendants_fails_clique_condition():
    edges = list(combinations(range(4), 2))
    nxt = 4
    for v in range(4):
        edges += [(v, nxt), (v, nxt + 1)]
        nxt += 2
    rep = check_property_P(build_graph(edges))
    assert not rep.holds
    assert any(v.kind == "K4" for v in rep.violations)


def test_property_P_heavy_hubs_light_wings_ok():
    # hub degrees 7 but wing degrees 2: the wing clause of condition 2 saves it
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    nxt = 4
    for hub in (0, 1):
        for _ in range(4):
            edges.append((hub, nxt))
            nxt += 1
    rep = check_property_P(build_graph(edges))
    assert rep.holds


def test_property_P_heavy_hubs_and_wings_fail():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    nxt = 4
    for hub in (0, 1):
        for _ in range(4):
            edges.append((hub, nxt))
            nxt += 1
    for wing in (2, 3):
        for _ in range(2):
            edges.append((wing, nxt))
            nxt += 1
    rep = check_property_P(build_graph(edges))
    assert not rep.holds
    (viol,) = rep.violations
    assert viol.kind == "diamond"
    assert viol.vertices[:2] == (0, 1)


def _holds_after_every_deletion(g):
    for e in g.edges():
        if not check_property_P(delete_edge(g, e)).holds:
            return False
    return True


def test_property_P_deletion_closed_exhaustive_n5():
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = build_graph(edges, vertices=range(5))
        if check_property_P(g).holds:
            assert _holds_after_every_deletion(g)


@pytest.mark.parametrize("seed", range(8))
def test_property_P_deletion_closed_random(seed):
    g = random_graph(n=10, p=0.35, seed=100 + seed)
    if check_property_P(g).holds:
        assert _holds_after_every_deletion(g)


def test_parse_edge_list_with_comments_and_header():
    text = "# sample\nvertices 5\n0 1\n1 2  # chord\n\n3 4\n"
    g = parse_edge_list(text)
    assert g.vertices == (0, 1, 2, 3, 4)
    assert g.edges() == [(0, 1), (1, 2), (3, 4)]


def test_parse_edge_list_errors():
    with pytest.raises(GraphError, match="line 1"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphError, match="integers"):
        parse_edge_list("a b\n")
    with pytest.raises(GraphError, match="exceeds declared"):
        parse_edge_list("vertices 2\n0 5\n")
    with pytest.raises(GraphError, match="repeated"):
        parse_edge_list("vertices 2\nvertices 3\n")


def test_edge_list_roundtrip():
    g = build_graph([(0, 2), (2, 3)], vertices=range(5))
    assert parse_edge_list(dump_edge_list(g)) == g


def _assert_sorted(g):
    assert isinstance(g.vertices, tuple)
    assert list(g.vertices) == sorted(g.vertices)
    assert list(g.adj) == list(g.vertices)
    for row in g.adj.values():
        assert isinstance(row, tuple)
        assert list(row) == sorted(row)
    # the cached count, against a recount of the rows
    assert g.num_edges() == sum(len(row) for row in g.adj.values()) // 2


def test_vertices_and_rows_stay_sorted_under_edits():
    # verify, total_elements, the audit and the discharge passes read
    # g.vertices and the adjacency rows without re-sorting them
    rng = random.Random(20261018)
    starts = []
    for _ in range(4):
        ids = rng.sample(range(0, 60, 2), 12)
        pairs = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u, v in combinations(ids, 2) if rng.random() < 0.3]
        rng.shuffle(pairs)
        starts.append(build_graph(pairs, vertices=rng.sample(ids, 3)))
        starts.append(parse_edge_list("".join(f"{u} {v}\n" for u, v in pairs)))
    starts += [graph_from_mask(6, m) for m in rng.sample(enum_graph_masks(6), 4)]
    starts += [gen_high_degree_P(11, 23, seed=s) for s in range(2)]
    brought_in = 0
    for g in starts:
        _assert_sorted(g)
        for _ in range(40):
            roll = rng.random()
            if roll < 0.4 and g.num_edges():
                g = delete_edge(g, rng.choice(g.edges()))
            elif roll < 0.8:
                u, v = rng.sample(g.vertices, 2)
                if not g.has_edge(u, v):
                    g = add_edge(g, (u, v))
            else:
                # a fresh id, often in a gap below the largest vertex
                fresh = [x for x in range(max(g.vertices) + 3) if x not in g.adj]
                new, old = rng.choice(fresh), rng.choice(g.vertices)
                g = add_edge(g, (new, old) if rng.random() < 0.5 else (old, new))
                brought_in += 1
            _assert_sorted(g)
    assert brought_in > 20


@given(graphs_on_range())
def test_edge_list_round_trip(g):
    assert parse_edge_list(dump_edge_list(g)) == g

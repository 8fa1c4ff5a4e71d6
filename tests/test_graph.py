from itertools import combinations

import pytest

from totalcolor.graphs import (
    DiamondWitness,
    GraphError,
    add_edge,
    build_graph,
    check_property_P,
    delete_edge,
    dump_edge_list,
    find_induced_diamonds,
    find_k4s,
    parse_edge_list,
)

from helpers import (
    brute_diamonds,
    brute_k4s,
    complete_graph,
    cycle_graph,
    path_graph,
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


def test_diamond_witness_vertex_set():
    w = DiamondWitness(hub_pair=(1, 2), wing_pair=(0, 3))
    assert w.vertex_set() == frozenset({0, 1, 2, 3})

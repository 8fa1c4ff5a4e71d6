"""Total coloring: frozen oracle values, verification, the exact and
greedy solvers, both extension procedures, and the reduce-and-extend
solver."""
from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations, islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from totalcolor import coloring
from totalcolor.coloring import (
    ColoringError,
    P3Certificate,
    TotalColoring,
    coloring_from_text,
    conflict_lists,
    edge_key,
    exact_chi_tt,
    extend_p1,
    extend_p3,
    greedy_total,
    peel_kind,
    solve_tcc,
    total_elements,
    verify,
)
from totalcolor.gen import gen_high_degree_P, gen_high_degree_P_drawing
from totalcolor.graphs import SimpleGraph, build_graph, delete_edge
from totalcolor.reduce import _proper_colorings, enum_graphs, find_p3_edge, find_reducible_edge

from helpers import (
    brute_chi_tt,
    brute_conflicts,
    complete_graph,
    cycle_graph,
    elements_conflict,
    graphs_on_range,
    path_graph,
    random_graph,
    torus_grid,
)


def star_graph(n):
    return build_graph([(0, i) for i in range(1, n + 1)])


def circulant(n, jumps):
    return build_graph([(i, (i + j) % n) for j in jumps for i in range(n)])


# ---------------------------------------------------------------------------
# The brute-force oracle comes first; these values are frozen.


def test_oracle_values_frozen():
    assert brute_chi_tt(complete_graph(2)) == 3
    assert brute_chi_tt(cycle_graph(3)) == 3
    assert brute_chi_tt(complete_graph(4)) == 5
    assert brute_chi_tt(cycle_graph(5)) == 4
    assert brute_chi_tt(cycle_graph(6)) == 3
    assert brute_chi_tt(path_graph(4)) == 3


def test_exact_matches_oracle_on_named_graphs():
    for g in [
        complete_graph(2),
        cycle_graph(3),
        complete_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        path_graph(4),
    ]:
        chi, witness = exact_chi_tt(g)
        assert chi == brute_chi_tt(g)
        assert witness.kappa == chi
        assert verify(g, witness) == []


def test_exact_matches_oracle_exhaustively_up_to_12_elements():
    # every isomorphism class with at most 12 elements in total
    checked = 0
    for n in range(1, 8):
        for g in enum_graphs(n):
            if len(g.vertices) + g.num_edges() > 12:
                continue
            chi, witness = exact_chi_tt(g)
            assert chi == brute_chi_tt(g), sorted(g.edges())
            assert verify(g, witness) == []
            checked += 1
    assert checked == 142


def test_exact_lower_bound_max_degree_plus_one():
    for seed in range(12):
        g = random_graph(7, 0.45, seed)
        chi, witness = exact_chi_tt(g)
        assert chi >= g.max_degree() + 1
        assert verify(g, witness) == []


def test_exact_trivial_graphs():
    assert exact_chi_tt(build_graph([]))[0] == 0
    one = build_graph([], vertices=[0])
    chi, w = exact_chi_tt(one)
    assert chi == 1 and w.vertex_color == {0: 1}


def test_exact_budget_rejection():
    g = torus_grid(3, 4)[1]  # 12 vertices + 24 edges = 36 elements
    with pytest.raises(ColoringError, match="exceed the exact budget"):
        exact_chi_tt(g)
    with pytest.raises(ColoringError, match="budget 8"):
        exact_chi_tt(complete_graph(4), budget=8)  # K4 has 10 elements
    # a raised budget lets the same instance through
    chi, _ = exact_chi_tt(complete_graph(4), budget=32)
    assert chi == 5


def test_exact_rejects_a_negative_budget_before_counting():
    # an empty graph once got "0 elements exceed the exact budget -1"
    for g in (build_graph([]), complete_graph(4)):
        with pytest.raises(ColoringError, match="^the exact budget must be >= 0, got -1$"):
            exact_chi_tt(g, budget=-1)
    assert exact_chi_tt(build_graph([]), budget=0)[0] == 0


def test_exact_witness_is_deterministic():
    a = exact_chi_tt(cycle_graph(5))[1]
    b = exact_chi_tt(cycle_graph(5))[1]
    assert a.vertex_color == b.vertex_color and a.edge_color == b.edge_color


# ---------------------------------------------------------------------------
# verify


def test_verify_c3_worked_example():
    # each edge carries the color of the vertex opposite it
    g = cycle_graph(3)
    c = TotalColoring(
        3,
        vertex_color={0: 1, 1: 2, 2: 3},
        edge_color={(1, 2): 1, (0, 2): 2, (0, 1): 3},
    )
    assert verify(g, c) == []


def test_verify_single_vertex():
    g = build_graph([], vertices=[0])
    assert verify(g, TotalColoring(1, vertex_color={0: 1})) == []


def test_verify_names_edge_endpoint_clash():
    g = cycle_graph(3)
    c = TotalColoring(
        3,
        vertex_color={0: 1, 1: 2, 2: 3},
        edge_color={(1, 2): 1, (0, 2): 2, (0, 1): 1},
    )
    bad = verify(g, c)
    assert ("ve", 0, (0, 1)) in bad


def test_verify_names_vertex_and_edge_pairs():
    g = path_graph(3)  # 0-1-2
    c = TotalColoring(
        3,
        vertex_color={0: 1, 1: 1, 2: 1},
        edge_color={(0, 1): 2, (1, 2): 2},
    )
    bad = verify(g, c)
    assert ("vv", 0, 1) in bad and ("vv", 1, 2) in bad
    assert ("ee", (0, 1), (1, 2)) in bad


def test_verify_rejects_partial_coloring():
    g = cycle_graph(3)
    c = TotalColoring(3, vertex_color={0: 1, 1: 2, 2: 3}, edge_color={(0, 1): 3})
    with pytest.raises(ColoringError, match=r"uncolored.*0, 2"):
        verify(g, c)


C3_OFF_PALETTE = "kappa 3\nv 0 1\nv 1 2\nv 2 9\ne 0 1 3\ne 0 2 2\ne 1 2 1\n"


def test_verify_rejects_elements_the_graph_lacks():
    # a proper-looking triangle coloring that also colors edge 5-7 and vertex 8
    c = coloring_from_text(C3_OFF_PALETTE + "e 5 7 1\nv 8 1\n")
    with pytest.raises(ColoringError, match=r"lacks: \[\('v', 8\), \('e', 5, 7\)\]"):
        verify(cycle_graph(3), c)


def test_verify_flags_colors_off_the_palette():
    g = cycle_graph(3)
    assert verify(g, coloring_from_text(C3_OFF_PALETTE)) == [("range", ("v", 2), 9)]
    zero_edge = C3_OFF_PALETTE.replace("v 2 9", "v 2 3").replace("e 0 1 3", "e 0 1 0")
    c = coloring_from_text(zero_edge)
    assert verify(g, c) == [("range", ("e", 0, 1), 0)]
    # the same colors under a wide enough palette are proper
    c.kappa = 9
    c.edge_color[(0, 1)] = 3
    assert verify(g, c) == []


def _slot(c, el):
    """The dict of c that holds element el's color, and el's key in it."""
    return (c.vertex_color, el[1]) if el[0] == "v" else (c.edge_color, el[1:])


def _pairset(violations):
    out = set()
    for item in violations:
        if item[0] == "vv":
            out.add(frozenset({("v", item[1]), ("v", item[2])}))
        elif item[0] == "ve":
            out.add(frozenset({("v", item[1]), ("e",) + item[2]}))
        else:
            out.add(frozenset({("e",) + item[1], ("e",) + item[2]}))
    return out


def test_verify_matches_brute_conflict_scan():
    # soundness and completeness against the naive pairwise oracle
    rng = random.Random(20240818)
    for trial in range(150):
        g = random_graph(rng.randint(3, 7), rng.uniform(0.2, 0.7), rng.randint(0, 9999))
        els = total_elements(g)
        if len(els) > 20:
            continue
        palette = rng.randint(2, 5)
        colors = {el: rng.randint(1, palette) for el in els}
        c = TotalColoring(palette)
        for el, col in colors.items():
            table, key = _slot(c, el)
            table[key] = col
        brute = {frozenset(p) for p in brute_conflicts(g, colors)}
        assert _pairset(verify(g, c)) == brute


def test_proper_random_colorings_pass_both_checkers():
    for seed in range(10):
        g = random_graph(6, 0.5, seed)
        c = greedy_total(g)
        assert verify(g, c) == []
        colors = {el: c.color_of(el) for el in total_elements(g)}
        assert brute_conflicts(g, colors) == []


def _listing_verify(g, c):
    """The reference for verify: its ordered listing as it ran on every
    coloring before the one-pass check of a proper one, with the range
    pre-check and the skip of a vertex whose edges all differ, and with a
    None color rejected by name once the coloring is known to be total."""
    vc, ec = c.vertex_color, c.edge_color
    edges = g.edges()
    missing = [("v", v) for v in g.vertices if v not in vc]
    missing += [("e",) + e for e in edges if e not in ec]
    if missing:
        raise ColoringError(f"coloring is partial; uncolored: {missing[:8]}")
    # nothing is missing, so equal counts mean nothing is extra
    if len(vc) != len(g.vertices) or len(ec) != len(edges):
        extra = [("v", v) for v in vc if v not in g.adj]
        known = set(edges)
        extra += [("e",) + e for e in ec if e not in known]
        raise ColoringError(f"coloring names elements the graph lacks: {extra[:8]}")
    for el in total_elements(g):
        if c.color_of(el) is None:
            raise ColoringError(f"coloring gives {el} the color None")
    bad = []
    used = {*vc.values(), *ec.values()}
    if used and not 1 <= min(used) <= max(used) <= c.kappa:
        for el in total_elements(g):
            color = c.color_of(el)
            if not 1 <= color <= c.kappa:
                bad.append(("range", el, color))
    for u, v in edges:
        if vc[u] == vc[v]:
            bad.append(("vv", u, v))
    for u, v in edges:
        cuv = ec[(u, v)]
        if cuv == vc[u]:
            bad.append(("ve", u, (u, v)))
        if cuv == vc[v]:
            bad.append(("ve", v, (u, v)))
    for v in g.vertices:
        nbrs = g.neighbors(v)
        row = [ec[edge_key(v, a)] for a in nbrs]
        if len(set(row)) == len(row):
            continue  # the edges at v all differ
        for i, a in enumerate(nbrs):
            for j in range(i + 1, len(nbrs)):
                if row[i] == row[j]:
                    bad.append(("ee", edge_key(v, a), edge_key(v, nbrs[j])))
    return bad


def _outcome(run):
    """run()'s result, or the ColoringError it raised, with its message."""
    try:
        return run()
    except ColoringError as exc:
        return "ColoringError", str(exc)


def pair_keys(c):
    """c's edge keys that are pairs, sorted."""
    return sorted(key for key in c.edge_color if len(key) == 2)


@st.composite
def drawn_colorings(draw, g, uv=None):
    """A coloring of g, or of g - uv when uv is given: greedy's proper one
    under a palette one short of it, equal or one wider, or random colors
    that may overrun a drawn palette; then changed by up to two drawn
    edits (when uv is given, among them coloring uv too, or instead of
    another edge)."""
    base = g if uv is None else delete_edge(g, uv)
    els, nbrs = conflict_lists(base)
    if draw(st.booleans()):
        colors = [greedy_total(base).color_of(el) for el in els]
        kappa = max(colors, default=1) + draw(st.integers(-1, 1))
    else:
        kappa = draw(st.integers(1, 2 * g.max_degree() + 2))
        colors = draw(st.lists(st.integers(0, kappa + 1), min_size=len(els), max_size=len(els)))
    c = TotalColoring(kappa)
    for el, color in zip(els, colors):
        table, key = _slot(c, el)
        table[key] = color
    n = len(g.vertices)
    edits = [
        "drop", "clash", "extra vertex", "extra edge", "reversed key", "non-pair key", "None color"
    ]
    edits += ["color uv", "uv for an edge"] * (uv is not None)
    for edit in draw(st.lists(st.sampled_from(edits), max_size=2)):
        if edit == "drop" and els:
            table, key = _slot(c, draw(st.sampled_from(els)))
            table.pop(key, None)
        elif edit == "clash" and base.num_edges():
            # one element takes the color of an element it conflicts with
            i = draw(st.sampled_from([i for i, near in enumerate(nbrs) if near]))
            table, key = _slot(c, els[i])
            other, other_key = _slot(c, els[draw(st.sampled_from(nbrs[i]))])
            table[key] = other.get(other_key)
        elif edit == "extra vertex":
            c.vertex_color[n] = draw(st.integers(1, kappa + 1))
        elif edit == "extra edge":
            pairs = [e for e in combinations(range(n + 2), 2) if not base.has_edge(*e)]
            c.edge_color[draw(st.sampled_from(pairs))] = draw(st.integers(1, kappa + 1))
        elif edit == "reversed key" and pair_keys(c):
            a, b = draw(st.sampled_from(pair_keys(c)))
            c.edge_color[b, a] = c.edge_color.pop((a, b))
        elif edit == "non-pair key" and pair_keys(c):
            # an edge's color moves to a key of one or three vertices
            a, b = key = draw(st.sampled_from(pair_keys(c)))
            c.edge_color[draw(st.sampled_from([(a,), (a, b, b)]))] = c.edge_color.pop(key)
        elif edit == "None color" and els:
            table, key = _slot(c, draw(st.sampled_from(els)))
            table[key] = None
        elif edit == "color uv":
            c.edge_color[edge_key(*uv)] = draw(st.integers(1, kappa + 1))
        elif edit == "uv for an edge" and c.edge_color:
            c.edge_color[edge_key(*uv)] = c.edge_color.pop(
                draw(st.sampled_from(sorted(c.edge_color)))
            )
    return c


@settings(max_examples=300, deadline=None)
@given(graphs_on_range(max_n=7), st.data())
def test_verify_matches_the_reference_listing(g, data):
    # the one-pass check only decides when to skip the listing: every
    # list, and every ColoringError message, is the reference's
    c = data.draw(drawn_colorings(g))
    expected = _outcome(lambda: _listing_verify(g, c))
    assert _outcome(lambda: verify(g, c)) == expected
    assert coloring._is_proper(g, c) == (expected == [])


@settings(max_examples=300, deadline=None)
@given(graphs_on_range(max_n=7), st.data())
def test_extension_gate_matches_the_reference_gate(g, data):
    # the gate used to run verify(delete_edge(g, uv), c); it must reject
    # the same colorings with the same message, whichever way uv is given,
    # and also a coloring that passes it but has a color above the kappa
    # it is extended within
    assume(g.num_edges())
    u, v = data.draw(st.sampled_from(g.edges()))
    c = data.draw(drawn_colorings(g, (u, v)))
    uv = data.draw(st.sampled_from([(u, v), (v, u)]))
    steps = [(None, 2 * g.max_degree() + 1)]  # P1: any edge at this palette
    tight = g.degree(u) + g.degree(v) - 1  # P3 needs the degree sum kappa + 1
    if peel_kind(g, u, v, tight) == "P3":
        steps += [(w, tight) for w in g.common_neighbors(u, v)]
    for w, kappa in steps:
        kind = "P1" if w is None else "P3"

        def reference_gate():
            if _listing_verify(delete_edge(g, uv), c):
                raise ColoringError(f"{kind} precondition: the reduced coloring is not proper")
            if any(color > kappa for color in (*c.vertex_color.values(), *c.edge_color.values())):
                raise ColoringError(
                    f"{kind} precondition: the reduced coloring has a color above {kappa}"
                )
            return "passed"

        def gate():
            extend_p1(g, uv, c, kappa) if w is None else extend_p3(g, uv, w, c, kappa)
            return "passed"

        expected = _outcome(reference_gate)
        assert _outcome(gate) == expected
        assert coloring._is_proper(g, c, (u, v), kappa) == (expected == "passed")


# ---------------------------------------------------------------------------
# the backtracking search


def reference_search(nbrs, order, palette):
    """_search as it was written first: a recursive generator, one frame
    per rank.  The iterative search must reproduce it call for call."""
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    earlier = [[rank[j] for j in nbrs[i] if rank[j] < r] for r, i in enumerate(order)]
    assigned = [0] * len(order)

    def fill(r):
        if r == len(order):
            yield [assigned[x] for x in rank]
            return
        taken = {assigned[j] for j in earlier[r]}
        for c in palette(assigned, r):
            if c not in taken:
                assigned[r] = c
                yield from fill(r + 1)

    return fill(0)


class _Cut(Exception):
    """Raised by a palette that has used up its calls."""


def _run_search(search, nbrs, order, palette, calls=400, found=40):
    """The colorings search yields and its palette calls, as (r,
    assigned[:r]) at the moment of the call.  The run stops at the
    found-th coloring or when a palette call would exceed `calls`, so
    both searches stop at the same point."""
    log, out = [], []

    def logged(assigned, r):
        if len(log) == calls:
            raise _Cut
        log.append((r, tuple(assigned[:r])))
        return palette(assigned, r)

    try:
        for colors in search(nbrs, order, logged):
            out.append(colors)
            if len(out) == found:
                break
    except _Cut:
        pass
    return out, log


def _first_use(kappa):
    return lambda assigned, r: range(1, min(kappa, max(assigned[:r], default=0) + 1) + 1)


def _shuffling(kappa, seed):
    rng = random.Random(seed)

    def palette(assigned, r):
        colors = list(range(1, kappa + 1))
        rng.shuffle(colors)
        return colors

    return palette


@pytest.mark.parametrize("kind", ["first-use", "shuffled"])
def test_search_matches_the_recursive_reference(kind):
    # every connected graph on <= 6 vertices, and no elements at all; the
    # first-use palette in exact_chi_tt's order, the shuffled one in
    # element order as the extension harness runs it, each at Delta + 1
    # (where most searches exhaust) and Delta + 2
    graphs = [g for n in range(1, 7) for g in enum_graphs(n, connected=True)]
    assert len(graphs) == 143
    cases = [([], range(0), 3)]
    for g in graphs:
        nbrs = conflict_lists(g)[1]
        if kind == "first-use":
            order = sorted(range(len(nbrs)), key=lambda i: (-len(nbrs[i]), i))
        else:
            order = range(len(nbrs))
        cases += [(nbrs, order, g.max_degree() + extra) for extra in (1, 2)]
    found = exhausted = 0
    for seed, (nbrs, order, kappa) in enumerate(cases):
        runs = [
            _run_search(
                search,
                nbrs,
                order,
                _first_use(kappa) if kind == "first-use" else _shuffling(kappa, seed),
            )
            for search in (reference_search, coloring._search)
        ]
        assert runs[0] == runs[1]
        found += len(runs[0][0])
        exhausted += len(runs[0][0]) < 40 and len(runs[0][1]) < 400
    assert found > 0 and exhausted > 0  # some searches ran to their end
    empty = _run_search(coloring._search, [], range(0), _first_use(3))
    assert empty == ([[]], [])


# ---------------------------------------------------------------------------
# greedy


def test_greedy_star_vertices_first():
    g = star_graph(5)
    c = greedy_total(g)
    # hub 1, leaves 2, then the five pairwise conflicting edges 3..7
    assert c.vertex_color == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2}
    assert [c.edge_color[(0, i)] for i in range(1, 6)] == [3, 4, 5, 6, 7]
    assert c.kappa == c.colors_used() == 7
    assert verify(g, c) == []


def test_greedy_empty_graph():
    c = greedy_total(build_graph([]))
    assert c.vertex_color == {} and c.edge_color == {} and c.colors_used() == 0


def test_greedy_k4_under_degree_bound():
    g = complete_graph(4)
    c = greedy_total(g)
    assert c.colors_used() <= 7  # 2 * Delta + 1
    assert verify(g, c) == []


def test_greedy_respects_conflict_degree_bound():
    for seed in range(8):
        g = random_graph(8, 0.5, seed)
        c = greedy_total(g)
        bound = max((len(near) for near in conflict_lists(g)[1]), default=0)
        assert c.colors_used() <= bound + 1
        assert verify(g, c) == []


def reference_first_fit(g):
    """The reference for greedy_total: its own first-fit loop in element
    order, as it ran before it read the first coloring of _search."""
    els, nbrs = conflict_lists(g)
    colors = [0] * len(els)
    for i, near in enumerate(nbrs):
        used = {colors[j] for j in near}
        color = 1
        while color in used:
            color += 1
        colors[i] = color
    return coloring._paint(TotalColoring(max(colors, default=0)), els, colors)


@settings(max_examples=300, deadline=None)
@given(graphs_on_range())
# edgeless graphs on 1-5 vertices, with gaps in the ids
@example(build_graph([], vertices=[3]))
@example(build_graph([], vertices=[0, 2]))
@example(build_graph([], vertices=[1, 4, 9]))
@example(build_graph([], vertices=[0, 2, 3, 7]))
@example(build_graph([], vertices=[2, 5, 6, 10, 11]))
def test_greedy_matches_the_reference_first_fit(g):
    assert greedy_total(g) == reference_first_fit(g)


# ---------------------------------------------------------------------------
# conflict lists


def test_conflict_lists_match_brute_oracle():
    rng = random.Random(20240818)
    for seed in range(20):
        g = random_graph(rng.randint(1, 7), rng.uniform(0.2, 0.8), seed)
        els, nbrs = conflict_lists(g)
        assert els == total_elements(g)
        for i, x in enumerate(els):
            assert nbrs[i] == [j for j, y in enumerate(els) if elements_conflict(g, x, y)]


# ---------------------------------------------------------------------------
# extend_p1


def test_extend_p1_path_with_huge_palette():
    g = path_graph(3)  # 0-1-2, delete (0,1)
    reduced = delete_edge(g, (0, 1))
    c = greedy_total(reduced)
    c.kappa = 13
    out = extend_p1(g, (0, 1), c, 13)
    assert verify(g, out) == []
    assert out.colors_used() <= 13


def test_extend_p1_boundary_degree_sum():
    # deg(u) + deg(v) == kappa exactly: u has four neighbors, v one more
    g = build_graph([(0, 1), (0, 3), (0, 4), (0, 5), (1, 2)])
    kappa = g.max_degree() + 2  # 6; sum over (0, 1) is 4 + 2 = 6
    reduced = delete_edge(g, (0, 1))
    rng = random.Random(7)
    colorings, _ = _proper_colorings(reduced, kappa, 120, rng)
    assert colorings
    for c in colorings:
        out = extend_p1(g, (0, 1), c, kappa)
        assert verify(g, out) == []
        assert out.colors_used() <= kappa


def test_extend_p1_rejects_tight_degree_sum():
    g = complete_graph(4)
    reduced = delete_edge(g, (0, 1))
    c = greedy_total(reduced)
    c.kappa = 5
    with pytest.raises(ColoringError, match="P1 precondition"):
        extend_p1(g, (0, 1), c, 5)  # degree sum 6 = kappa + 1


def test_extend_p1_rejects_fat_low_end():
    g = cycle_graph(3)
    reduced = delete_edge(g, (0, 1))
    c = greedy_total(reduced)
    with pytest.raises(ColoringError, match="P1 precondition"):
        extend_p1(g, (0, 1), c, 4)  # 2*deg = 4 > kappa - 1


def test_extend_p1_rejects_non_edge_and_improper_base():
    g = path_graph(3)
    c = greedy_total(delete_edge(g, (0, 1)))
    with pytest.raises(ColoringError, match="not an edge"):
        extend_p1(g, (0, 2), c, 13)
    broken = c.copy()
    broken.vertex_color[1] = broken.vertex_color[2]
    with pytest.raises(ColoringError, match="not proper"):
        extend_p1(g, (0, 1), broken, 13)


def test_extend_p1_rejects_a_base_that_colors_uv_instead_of_an_edge():
    # as many colored edges as g - uv has, all proper on g, but uv is
    # among them and 1-2 is not
    g = path_graph(3)
    c = TotalColoring(5, vertex_color={0: 1, 1: 2, 2: 3}, edge_color={(0, 1): 4})
    with pytest.raises(ColoringError, match=r"partial; uncolored: \[\('e', 1, 2\)\]"):
        extend_p1(g, (1, 0), c, 5)


def test_extensions_reject_a_color_above_the_kappa_they_extend_within():
    # proper on g - uv under its own palette of 9, but the step is asked
    # for a kappa-5 coloring: the gate must refuse, not return color 9
    g = path_graph(3)
    c = TotalColoring(9, vertex_color={0: 9, 1: 1, 2: 2}, edge_color={(1, 2): 3})
    assert coloring._is_proper(g, c, (0, 1)) and not coloring._is_proper(g, c, (0, 1), 5)
    with pytest.raises(ColoringError, match="P1 precondition: .* has a color above 5"):
        extend_p1(g, (0, 1), c, 5)
    # triangle 0-1-2 with two pendant edges at 0: uv = 01 is tight P3 at 5
    g = build_graph([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    assert peel_kind(g, 0, 1, 5) == "P3"
    c = greedy_total(delete_edge(g, (0, 1)))
    assert c.kappa <= 5
    c = TotalColoring(9, {**c.vertex_color, 3: 9}, dict(c.edge_color))
    with pytest.raises(ColoringError, match="P3 precondition: .* has a color above 5"):
        extend_p3(g, (0, 1), 2, c, 5)


def test_verify_names_an_element_with_no_color():
    g = path_graph(3)
    c = TotalColoring(5, vertex_color={0: 1, 1: None, 2: 3}, edge_color={(0, 1): 4, (1, 2): 5})
    with pytest.raises(ColoringError, match=r"coloring gives \('v', 1\) the color None"):
        verify(g, c)
    with pytest.raises(ColoringError, match=r"coloring gives \('v', 1\) the color None"):
        extend_p1(g, (0, 1), TotalColoring(5, {0: 1, 1: None, 2: 3}, {(1, 2): 5}), 5)


def test_extend_p1_randomized_trials():
    rng = random.Random(20240818)
    trials = 0
    for _ in range(40):
        g = random_graph(rng.randint(5, 7), rng.uniform(0.3, 0.55), rng.randint(0, 9999))
        if not g.edges() or len(total_elements(g)) > 26:
            continue
        kappa = g.max_degree() + 2
        half = (kappa - 1) // 2
        for u, v in g.edges():
            if (
                min(g.degree(u), g.degree(v)) <= half
                and g.degree(u) + g.degree(v) <= kappa
            ):
                reduced = delete_edge(g, (u, v))
                colorings, _ = _proper_colorings(reduced, kappa, 5, rng)
                for c in colorings:
                    out = extend_p1(g, (u, v), c, kappa)
                    assert verify(g, out) == []
                    assert out.colors_used() <= kappa
                    trials += 1
    assert trials > 100


# ---------------------------------------------------------------------------
# extend_p3
#
# The shared gadget: u=0 with five neighbors, v=1 with three, apex w=2;
# degree sum 5 + 3 = 8 = kappa + 1 at kappa = 7.


P3_GADGET = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 6)])


def test_extend_p3_first_branch_free_color():
    c = TotalColoring(
        7,
        vertex_color={0: 1, 1: 6, 2: 3, 3: 2, 4: 2, 5: 2, 6: 2},
        edge_color={(0, 2): 2, (0, 3): 3, (0, 4): 4, (0, 5): 5, (1, 2): 5, (1, 6): 1},
    )
    assert verify(delete_edge(P3_GADGET, (0, 1)), c) == []
    out = extend_p3(P3_GADGET, (0, 1), 2, c, 7)
    assert not isinstance(out, P3Certificate)
    # 6 is the smallest color free at both ends; only uv and v change
    assert out.edge_color[(0, 1)] == 6
    assert out.vertex_color[1] == 4
    assert out.edge_color[(1, 2)] == 5
    assert verify(P3_GADGET, out) == []


def test_extend_p3_second_branch_slides_wv():
    # u's closed set {1..5} and v's edge set {6,7} cover the whole palette,
    # so wv's color 6 moves onto uv and wv is recolored
    c = TotalColoring(
        7,
        vertex_color={0: 1, 1: 2, 2: 3, 3: 2, 4: 2, 5: 2, 6: 1},
        edge_color={(0, 2): 2, (0, 3): 3, (0, 4): 4, (0, 5): 5, (1, 2): 6, (1, 6): 7},
    )
    assert verify(delete_edge(P3_GADGET, (0, 1)), c) == []
    out = extend_p3(P3_GADGET, (0, 1), 2, c, 7)
    assert not isinstance(out, P3Certificate)
    assert out.edge_color[(0, 1)] == 6
    assert out.edge_color[(1, 2)] == 1
    assert out.vertex_color[1] == 2
    assert verify(P3_GADGET, out) == []


def test_extend_p3_third_branch_swaps_through_uw():
    # w also saturated: recoloring wv is blocked, so uw hands its color to
    # uv and takes the one color missing around both u and w
    g = build_graph(
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 6), (2, 7), (2, 8), (2, 9)]
    )
    c = TotalColoring(
        7,
        vertex_color={0: 1, 1: 2, 2: 3, 3: 2, 4: 2, 5: 2, 6: 1, 7: 2, 8: 1, 9: 1},
        edge_color={
            (0, 2): 2,
            (0, 3): 3,
            (0, 4): 4,
            (0, 5): 5,
            (1, 2): 6,
            (1, 6): 7,
            (2, 7): 1,
            (2, 8): 4,
            (2, 9): 5,
        },
    )
    assert verify(delete_edge(g, (0, 1)), c) == []
    out = extend_p3(g, (0, 1), 2, c, 7)
    assert not isinstance(out, P3Certificate)
    assert out.edge_color[(0, 2)] == 7  # alpha
    assert out.edge_color[(0, 1)] == 2  # uw's old color
    assert out.vertex_color[1] == 4
    assert verify(g, out) == []


def test_extend_p3_certificate_only_below_target_palette():
    # at kappa = Delta + 1 the cascade CAN run dry; this pins the
    # certificate shape and shows why kappa >= Delta + 2 matters
    g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 5), (2, 6)])
    c = TotalColoring(
        5,
        vertex_color={0: 1, 1: 2, 2: 3, 3: 2, 4: 2, 5: 2, 6: 1},
        edge_color={(0, 2): 2, (0, 3): 3, (0, 4): 4, (1, 2): 5, (2, 5): 1, (2, 6): 4},
    )
    assert verify(delete_edge(g, (0, 1)), c) == []
    out = extend_p3(g, (0, 1), 2, c, 5)
    assert isinstance(out, P3Certificate)
    assert out.edge == (0, 1) and out.apex == 2 and out.kappa == 5
    assert out.u_used == frozenset({1, 2, 3, 4})
    assert out.v_used == frozenset({5})
    assert out.w_used == frozenset({1, 2, 3, 4, 5})


def test_extend_p3_rejections():
    c = greedy_total(delete_edge(P3_GADGET, (0, 1)))
    c.kappa = 8
    with pytest.raises(ColoringError, match="exactly"):
        extend_p3(P3_GADGET, (0, 1), 2, c, 8)  # sum 8 != kappa + 1
    with pytest.raises(ColoringError, match="triangle"):
        extend_p3(P3_GADGET, (0, 1), 3, c, 7)
    g = complete_graph(4)
    cg = greedy_total(delete_edge(g, (0, 1)))
    with pytest.raises(ColoringError, match="2\\*deg"):
        extend_p3(g, (0, 1), 2, cg, 5)  # 2*3 > 4
    broken = greedy_total(delete_edge(P3_GADGET, (0, 1)))
    broken.vertex_color[3] = broken.vertex_color[0]
    with pytest.raises(ColoringError, match="not proper"):
        extend_p3(P3_GADGET, (0, 1), 2, broken, 7)


def test_public_extensions_leave_their_input_unchanged():
    # extend_p1 and extend_p3 return a new coloring and leave the one
    # passed in as it was, also when the cascade runs dry
    g = path_graph(3)
    cases = [(g, (0, 1), None, greedy_total(delete_edge(g, (0, 1))), 13)]
    colorings, _ = _proper_colorings(delete_edge(P3_GADGET, (0, 1)), 7, 20, random.Random(5))
    cases += [(P3_GADGET, (0, 1), 2, c, 7) for c in colorings]
    g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 5), (2, 6)])
    c = TotalColoring(
        5,
        vertex_color={0: 1, 1: 2, 2: 3, 3: 2, 4: 2, 5: 2, 6: 1},
        edge_color={(0, 2): 2, (0, 3): 3, (0, 4): 4, (1, 2): 5, (2, 5): 1, (2, 6): 4},
    )
    cases.append((g, (0, 1), 2, c, 5))  # kappa = Delta + 1: a certificate
    kinds = set()
    for g, uv, w, c, kappa in cases:
        before = c.copy()
        out = extend_p1(g, uv, c, kappa) if w is None else extend_p3(g, uv, w, c, kappa)
        assert out is not c and c == before
        kinds.add(type(out))
    assert kinds == {TotalColoring, P3Certificate}


def test_extend_p3_randomized_never_certifies_at_target():
    # at kappa >= Delta + 2 the cascade must always land
    rng = random.Random(20240819)
    reduced = delete_edge(P3_GADGET, (0, 1))
    colorings, _ = _proper_colorings(reduced, 7, 400, rng)
    assert len(colorings) == 400
    for c in colorings:
        out = extend_p3(P3_GADGET, (0, 1), 2, c, 7)
        assert not isinstance(out, P3Certificate)
        assert verify(P3_GADGET, out) == []
        assert out.colors_used() <= 7


def test_extend_p3_certifies_below_delta_plus_2_with_preconditions_met():
    # extend_p3 checks the edge, the triangle, the tight degree sum and the
    # reduced coloring, and all of them hold here; at Delta + 1 the cascade
    # still runs dry for some colorings
    g = enum_graphs(6, connected=True)[30]
    kappa = g.max_degree() + 1
    assert peel_kind(g, 0, 4, kappa) == "P3"
    colorings, _ = _proper_colorings(delete_edge(g, (0, 4)), kappa, 200, random.Random(1))
    outs = [
        extend_p3(g, (0, 4), w, c, kappa)
        for c in colorings
        for w in g.common_neighbors(0, 4)
    ]
    assert any(isinstance(out, P3Certificate) for out in outs)
    trace = solve_tcc(g, kappa=kappa, budget=0).trace
    assert "triangle cascade stalled at (0, 4); greedy fallback" in trace


def test_solve_cascade_stalls_only_below_delta_plus_2():
    """(stalls, P3 extensions) of solve_tcc at budget 0 over the connected
    graphs with at most 6 vertices, per palette Delta + extra."""
    counts = {}
    for extra in (1, 2, 3):
        stalls = p3 = 0
        for n in range(2, 7):
            for g in enum_graphs(n, connected=True):
                trace = solve_tcc(g, kappa=g.max_degree() + extra, budget=0).trace
                stalls += any("stalled" in t for t in trace)
                p3 += sum("via apex" in t for t in trace)
        counts[extra] = (stalls, p3)
    assert counts == {1: (2, 13), 2: (0, 2), 3: (0, 0)}


# ---------------------------------------------------------------------------
# the extension kernel against its reference
#
# reference_extend is the extension step as it read before its one-pass
# rewrite: two color censuses, two unions for a free color and a walk of
# v's row to recolor it.  It also counts the branch each call ends in.


def reference_colors_at(g, c, x):
    """The colors on x's edges, plus x's own color if it has one."""
    ec = c.edge_color
    seen = {ec.get((x, w) if x <= w else (w, x)) for w in g.neighbors(x)}
    seen.add(c.vertex_color.get(x))
    seen.discard(None)
    return seen


def reference_free_color(kappa, *used):
    taken = set().union(*used)
    for c in range(1, kappa + 1):
        if c not in taken:
            return c
    return None


def reference_recolor_vertex(g, c, v, kappa):
    used = set()
    ec, vc = c.edge_color, c.vertex_color
    for w in g.neighbors(v):
        color = ec.get((v, w) if v <= w else (w, v))
        if color is not None:
            used.add(color)
            used.add(vc[w])
    color = reference_free_color(kappa, used)
    if color is None:
        raise ColoringError("vertex recoloring cannot fail: 2*deg(v) <= kappa-1")
    c.vertex_color[v] = color


def reference_extend(g, uv, w, c, kappa, branches):
    u, v = uv
    used_u, used_v = reference_colors_at(g, c, u), reference_colors_at(g, c, v)
    du, dv = len(used_u), len(used_v)
    if (w is None and 2 * dv > kappa - 1) or (w is not None and du < dv):
        u, v, used_u, used_v = v, u, used_v, used_u
    c.kappa = kappa
    used_v.discard(c.vertex_color.pop(v, None))
    uvk = edge_key(u, v)
    theta = reference_free_color(kappa, used_u, used_v)
    if theta is not None:
        branches["free"] += 1
        c.edge_color[uvk] = theta
        reference_recolor_vertex(g, c, v, kappa)
        return c
    if w is None:
        raise ColoringError("edge color cannot run out: deg sums leave slack")
    wvk = edge_key(w, v)
    uwk = edge_key(u, w)
    pivot = c.edge_color[wvk]
    c.edge_color[uvk] = pivot
    del c.edge_color[wvk]
    fresh = reference_free_color(
        kappa, reference_colors_at(g, c, w), reference_colors_at(g, c, v)
    )
    if fresh is not None:
        branches["slide"] += 1
        c.edge_color[wvk] = fresh
        reference_recolor_vertex(g, c, v, kappa)
        return c
    c.edge_color[wvk] = pivot
    del c.edge_color[uvk]
    used_w_full = reference_colors_at(g, c, w)
    alpha = reference_free_color(kappa, used_u, used_w_full)
    if alpha is None:
        branches["certificate"] += 1
        return P3Certificate(
            edge=uvk,
            apex=w,
            kappa=kappa,
            u_used=frozenset(used_u),
            v_used=frozenset(used_v),
            w_used=frozenset(used_w_full),
        )
    branches["swap"] += 1
    c.edge_color[uvk] = c.edge_color[uwk]
    c.edge_color[uwk] = alpha
    reference_recolor_vertex(g, c, v, kappa)
    return c


def test_color_usage_census_and_bounds():
    # on a proper coloring the census holds one color per colored edge
    # plus the vertex's own, the count the kernel takes without the set
    g = complete_graph(4)
    c = greedy_total(g)
    for v in g.vertices:
        on_edges = {c.edge_color[edge_key(v, w)] for w in g.neighbors(v)}
        assert reference_colors_at(g, c, v) == on_edges | {c.vertex_color[v]}
        assert len(reference_colors_at(g, c, v)) == g.degree(v) + 1


def test_color_usage_on_erased_vertex():
    g = path_graph(3)
    c = greedy_total(g)
    del c.vertex_color[1]
    assert reference_colors_at(g, c, 1) == {c.edge_color[(0, 1)], c.edge_color[(1, 2)]}
    del c.edge_color[(0, 1)]
    assert reference_colors_at(g, c, 1) == {c.edge_color[(1, 2)]}


def test_extend_matches_the_reference_kernel():
    # every connected graph on at most 6 vertices, kappa = Delta + 1..3,
    # every P1 or P3 edge in both orientations and every apex, up to 8
    # colorings of g - uv each
    branches, instances, calls = Counter(), 0, 0
    for n in range(2, 7):
        for g in enum_graphs(n, connected=True):
            for kappa in range(g.max_degree() + 1, g.max_degree() + 4):
                for u, v in g.edges():
                    kind = peel_kind(g, u, v, kappa)
                    apexes = (None,) if kind == "P1" else g.common_neighbors(u, v)
                    if kind is None or not apexes:
                        continue
                    instances += 1
                    rng = random.Random(instances)
                    colorings, _ = _proper_colorings(delete_edge(g, (u, v)), kappa, 8, rng)
                    for c in colorings:
                        for uv in ((u, v), (v, u)):
                            for w in apexes:
                                mine, ref = c.copy(), c.copy()
                                out = coloring._extend(g, uv, w, mine, kappa)
                                want = reference_extend(g, uv, w, ref, kappa, branches)
                                calls += 1
                                assert mine == ref
                                if isinstance(want, P3Certificate):
                                    assert isinstance(out, P3Certificate)
                                    assert vars(out) == vars(want)
                                else:
                                    assert out is mine
                                    assert (out.as_text(), out.kappa) == (want.as_text(), want.kappa)
    assert set(branches) == {"free", "slide", "swap", "certificate"}
    assert calls == sum(branches.values())


# ---------------------------------------------------------------------------
# solve_tcc


def _rescan_peel(g, kappa, limit):
    """The plain peel loop that solve_tcc's worklist stands in for: rescan
    for the first P1 edge, else the first P3 edge, delete it, repeat."""
    steps = []
    while len(steps) < limit:
        e = find_reducible_edge(g, kappa)
        step = (e, None) if e is not None else find_p3_edge(g, kappa)
        if step is None:
            break
        steps.append(step)
        g = delete_edge(g, step[0])
    return steps, g


@settings(max_examples=200, deadline=None)
@given(graphs_on_range())
def test_peel_worklist_matches_the_rescan_loop(g):
    limit = len(g.vertices) + g.num_edges()  # budget 0
    for extra in (1, 2, 3):
        kappa = g.max_degree() + extra
        assert coloring._peel(g, kappa, limit) == _rescan_peel(g, kappa, limit)


def test_peel_finds_an_edge_made_p3_by_a_p1_peel():
    # at kappa = 5, edge 1-4 has degree sum 3 + 4 = kappa + 2; peeling the
    # P1 edge 0-1 lowers deg(1), and 1-4 becomes P3 with apex 5
    g = build_graph(
        [(0, 1), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    )
    assert peel_kind(g, 1, 4, 5) is None
    steps, core = coloring._peel(g, 5, 99)
    assert steps[:2] == [((0, 1), None), ((1, 4), 5)]
    assert (steps, core) == _rescan_peel(g, 5, 99)


def test_peel_drops_a_p3_candidate_whose_apex_edge_is_peeled():
    # at kappa = 5, edge 0-4 is P3 with one apex, 3; the P1 edge 0-3 goes
    # first, leaving 0-4 without a triangle, and it is then peeled as P1
    g = build_graph([(0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)])
    assert peel_kind(g, 0, 4, 5) == "P3" and g.common_neighbors(0, 4) == (3,)
    steps, core = coloring._peel(g, 5, 99)
    assert steps[:2] == [((0, 3), None), ((0, 4), None)]
    assert (steps, core) == _rescan_peel(g, 5, 99)


def test_peel_rules_each_edge_a_bounded_number_of_times(monkeypatch):
    # an edge queued as P1 stays P1 until peeled, so re-offering it after
    # a peel at one of its ends asks the rule nothing
    calls = Counter()

    def counted(du, dv, kappa):
        calls["rule"] += 1
        return rule(du, dv, kappa)

    rule = coloring._peel_rule
    monkeypatch.setattr(coloring, "_peel_rule", counted)
    for g in (gen_high_degree_P(12, 240, seed=1009), gen_high_degree_P(12, 2000, seed=1)):
        calls.clear()
        solve_tcc(g)
        assert 0 < calls["rule"] < 2 * g.num_edges()


def test_solve_makes_a_constant_number_of_whole_graph_passes(monkeypatch):
    # counted, not timed: calls that cost O(m) each (listing the edges,
    # deleting an edge, copying a coloring) must not grow with the
    # number of peel steps
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    graphs = [gen_high_degree_P(12, 240), gen_high_degree_P(12, 2000)]
    monkeypatch.setattr(SimpleGraph, "edges", counted("edges", SimpleGraph.edges))
    monkeypatch.setattr(coloring, "conflict_lists", counted("conflict_lists", conflict_lists))
    monkeypatch.setattr(coloring, "delete_edge", counted("delete_edge", delete_edge))
    monkeypatch.setattr(TotalColoring, "copy", counted("copy", TotalColoring.copy))
    seen = []
    for g in graphs:
        counts.clear()
        res = solve_tcc(g)
        assert sum("extended across" in t for t in res.trace) > len(g.vertices)
        seen.append(dict(counts))
    # one edge list for the worklist; the edgeless core is colored
    # without listing elements or conflicts; the final verify lists no
    # edges on a proper coloring; no edge deletion and no coloring copy
    assert seen == [{"edges": 1}] * 2


def test_solve_k4():
    res = solve_tcc(complete_graph(4))
    assert res.kappa == 5 and res.colors_used == 5 and res.ok
    assert verify(complete_graph(4), res.coloring) == []


def test_solve_torus_grid_within_delta_plus_2():
    g = torus_grid(3, 3)[1]
    res = solve_tcc(g)
    assert res.colors_used <= 6 and res.ok
    assert verify(g, res.coloring) == []


def _random_tree(n, seed):
    rng = random.Random(seed)
    return build_graph([(rng.randrange(i), i) for i in range(1, n)])


def test_solve_random_trees_meet_target():
    for seed in range(8):
        g = _random_tree(25, seed)
        res = solve_tcc(g)
        assert res.ok, res.trace
        assert res.colors_used <= g.max_degree() + 2
        assert verify(g, res.coloring) == []
        # 25 vertices + 24 edges is far past the exact budget, so the
        # solver must have peeled and extended
        assert any("extended across" in t for t in res.trace)


def test_solve_stalled_core_falls_back_to_repair():
    # 6-regular circulant: no edge is reducible at kappa = 8 and the graph
    # is too big for the exact budget, so greedy + repair carries it
    g = circulant(13, (1, 2, 3))
    assert greedy_total(g).colors_used() > 8
    res = solve_tcc(g)
    assert res.trace[0].startswith("core too large")
    assert res.colors_used == 8 and res.ok
    assert verify(g, res.coloring) == []


def test_solve_is_deterministic():
    g = circulant(13, (1, 2, 3))
    a, b = solve_tcc(g), solve_tcc(g)
    assert a.coloring.vertex_color == b.coloring.vertex_color
    assert a.coloring.edge_color == b.coloring.edge_color
    assert a.trace == b.trace


def test_solve_kappa_override():
    res = solve_tcc(complete_graph(4), kappa=7)
    assert res.kappa == 7 and res.colors_used == 5 and res.ok


def test_solve_always_returns_verifying_coloring():
    for seed in range(6):
        g = random_graph(10, 0.45, seed)
        res = solve_tcc(g)
        assert verify(g, res.coloring) == []
        assert res.ok == (res.colors_used <= g.max_degree() + 2)


def test_solve_extends_p3_edges_across_a_widened_core_palette():
    # at kappa = Delta + 1 and budget 0 the greedy core of each of these
    # graphs needs Delta + 2 colors, so a P3 edge peeled at Delta + 1 is
    # put back at the wider palette; the result must still verify
    cases = [(6, 107), (7, 254), (7, 482), (7, 667), (7, 674), (7, 685), (7, 686), (7, 693)]
    for n, i in cases:
        g = enum_graphs(n, connected=True)[i]
        kappa = g.max_degree() + 1
        res = solve_tcc(g, kappa=kappa, budget=0)
        assert res.trace[1] == "core repair exhausted; palette stays over target"
        assert any("via apex" in t for t in res.trace)
        assert verify(g, res.coloring) == []
        assert (res.colors_used, res.ok) == (kappa + 1, False)


def test_solve_raises_on_improper_result(monkeypatch):
    # the final check is an explicit raise, so it also runs under python -O
    monkeypatch.setattr(coloring, "verify", lambda g, c: [("vv", 0, 1)])
    with pytest.raises(ColoringError, match="improper coloring"):
        solve_tcc(complete_graph(4))


# ---------------------------------------------------------------------------
# file format


def test_coloring_text_golden():
    chi, w = exact_chi_tt(cycle_graph(3))
    assert chi == 3
    assert w.as_text() == "kappa 3\nv 0 1\nv 1 2\nv 2 3\ne 0 1 3\ne 0 2 2\ne 1 2 1\n"


def test_coloring_text_round_trip():
    g = random_graph(7, 0.5, 3)
    c = greedy_total(g)
    back = coloring_from_text(c.as_text())
    assert back.kappa == c.kappa
    assert back.vertex_color == c.vertex_color
    assert back.edge_color == c.edge_color


def test_coloring_text_rejects_repeated_entries():
    with pytest.raises(ColoringError, match="line 3"):
        coloring_from_text("kappa 3\nv 0 1\nv 0 2\n")
    # the same edge written in either orientation is one entry
    with pytest.raises(ColoringError, match="line 3"):
        coloring_from_text("kappa 5\ne 0 1 3\ne 1 0 4\n")
    with pytest.raises(ColoringError, match="line 2"):
        coloring_from_text("kappa 3\nkappa 5\n")


def test_coloring_text_tolerates_comments_and_blanks():
    c = coloring_from_text("# palette\n\nkappa 4\nv 3 2\ne 5 1 4\n")
    assert c.kappa == 4
    assert c.vertex_color == {3: 2}
    assert c.edge_color == {(1, 5): 4}


def test_coloring_text_errors():
    with pytest.raises(ColoringError, match="bad coloring line 1"):
        coloring_from_text("x 1 2\n")
    with pytest.raises(ColoringError, match="missing"):
        coloring_from_text("v 1 2\n")
    with pytest.raises(ColoringError, match="bad coloring line"):
        coloring_from_text("kappa 3\nv 1 one\n")


def test_coloring_text_rejects_a_negative_palette():
    with pytest.raises(ColoringError, match=r"^bad coloring line 1: 'kappa -3'$"):
        coloring_from_text("kappa -3\nv 0 1\n")
    # the empty graph needs no color at all
    assert coloring_from_text("kappa 0\n").kappa == 0


def test_edge_key_normalizes():
    assert edge_key(4, 2) == (2, 4) == edge_key(2, 4)
    c = TotalColoring(3)
    c.edge_color[edge_key(5, 1)] = 2
    assert c.color_of(("e", 1, 5)) == 2


def test_elements_conflict_is_symmetric():
    g = random_graph(6, 0.5, 11)
    els = total_elements(g)
    for x in els:
        for y in els:
            assert elements_conflict(g, x, y) == elements_conflict(g, y, x)


# ---------------------------------------------------------------------------
# Golden pins: sha256 of outputs that a refactor of the coloring code must
# reproduce exactly (colorings, solver traces, enumeration order).


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "g, digest",
    [
        # P1 peeling onto a greedy core
        (
            gen_high_degree_P(12, 60, seed=1),
            "90b4fb730109cdfe6db5b7906bae966f850ef2e03d93fbb14965d2a4b0a7f88d",
        ),
        # greedy first-fit plus repair, no peeling
        (
            circulant(13, (1, 2, 3)),
            "b74aaa50d56ae1a4156fe68656977c55317e46008c105a79060eda2fc6581140",
        ),
    ],
    ids=["wheel_sum_12_60", "circulant_13"],
)
def test_golden_solve_tcc(g, digest):
    res = solve_tcc(g)
    assert _sha(res.coloring.as_text() + "\n".join(res.trace)) == digest


def test_golden_exact_witnesses():
    chi, w = exact_chi_tt(cycle_graph(5))
    assert (chi, _sha(w.as_text())) == (
        4,
        "1dc29acd8c5021037771ac9aec17901456d19e9514fbf0fc6015735b6fe506ac",
    )
    chi, w = exact_chi_tt(complete_graph(4))
    assert (chi, _sha(w.as_text())) == (
        5,
        "a8285885f06f3ff816fa147c2b18f560cf7c80b4839d785cd04932a0aca9cacd",
    )


def test_golden_proper_colorings():
    found, truncated = _proper_colorings(
        delete_edge(P3_GADGET, (0, 1)), 7, 50, random.Random(3)
    )
    assert (len(found), truncated) == (50, True)
    assert _sha("".join(c.as_text() for c in found)) == (
        "ea52faf94e96e7cf31f5634649c3547feb6f1287cce558d94638d2f74f451a93"
    )


def test_sampled_colorings_are_no_lexicographic_prefix():
    # the colorings the golden pin samples are not the first 50 that a
    # search trying the colors ascending finds
    reduced = delete_edge(P3_GADGET, (0, 1))
    found, _ = _proper_colorings(reduced, 7, 50, random.Random(3))
    els, nbrs = conflict_lists(reduced)
    ascending = coloring._search(nbrs, range(len(els)), lambda assigned, r: range(1, 8))
    prefix = [coloring._paint(TotalColoring(7), els, colors) for colors in islice(ascending, 50)]
    assert len(prefix) == 50
    assert {c.as_text() for c in found}.isdisjoint(c.as_text() for c in prefix)


def _small_connected():
    return [g for n in range(1, 7) for g in enum_graphs(n, connected=True)]


def test_golden_exact_witnesses_small_connected():
    graphs = _small_connected()
    assert len(graphs) == 143
    text = ""
    for g in graphs:
        chi, w = exact_chi_tt(g)
        text += f"{chi}\n{w.as_text()}"
    assert _sha(text) == "2dafcf577f0b75ec5b7d6693582618027a66fc7b7470b50133a3cc4d6e3a9e43"


def test_golden_solve_tcc_small_connected():
    # budget 0 peels every edge the rule allows, so P1 and P3 steps and
    # the triangle-cascade fallback all run; kappa = Delta + 1 is below
    # the target palette, which is where the cascade can stall
    # enum_graphs(6, connected=True)[107] at Delta + 1 is left out: its
    # greedy core needs a wider palette than the one a P3 edge was peeled at
    text, apexes, stalls = "", 0, 0
    for i, g in enumerate(_small_connected()):
        for extra in (1, 2):
            if (i, extra) == (31 + 107, 1):  # 31 graphs have fewer than 6 vertices
                continue
            res = solve_tcc(g, kappa=g.max_degree() + extra, budget=0)
            apexes += sum("via apex" in t for t in res.trace)
            stalls += sum("stalled" in t for t in res.trace)
            text += res.coloring.as_text() + "\n".join(res.trace)
    assert (apexes, stalls) == (14, 2)
    assert _sha(text) == "b0381b3f8f206f950ac3889d1bcc2d25f287fb0613edf1edf1e2655f7aea806c"


def _solve_text(g, **kw):
    res = solve_tcc(g, **kw)
    return res.coloring.as_text() + "\n".join(res.trace)


def test_golden_solve_tcc_criterion_8_instances():
    # the 50 high-degree instances of the acceptance test's criterion 8
    rng = random.Random(20240819)
    text = ""
    for i in range(50):
        delta = 11 + i % 4
        size = rng.choice([delta + 1, 2 * delta + 1, 60, 120, 200, 300])
        if delta + 1 < size < 2 * delta + 1:
            size = 2 * delta + 1
        text += _solve_text(gen_high_degree_P_drawing(delta, size, seed=i)[0])
    assert _sha(text) == "2bc65446eba6c19f385799c817510761ae946b90e5360cb34266b58103825942"


def test_golden_solve_tcc_wheel_sum_2000():
    text = _solve_text(gen_high_degree_P(12, 2000, seed=1))
    assert _sha(text) == "b4e1595a7681929a46284ae05df342f2a352fe25c7cf3388077ac38d88a7bef2"


def test_golden_solve_tcc_p3_after_p1():
    # random graphs with triangles where, at both palettes, a P3 edge is
    # peeled after some P1 edge
    text = ""
    for n, p, seed in [(16, 0.5, 4), (18, 0.45, 7), (20, 0.5, 2), (20, 0.55, 7)]:
        g = random_graph(n, p, seed)
        for extra in (1, 2):
            text += _solve_text(g, kappa=g.max_degree() + extra, budget=0)
    assert text.count("via apex") == 16
    assert _sha(text) == "5a3a5f9bcdcab11025eea2fafd1b55788df6dd671371848aa0b4ef5c517ba9cf"


@settings(max_examples=50, deadline=None)
@given(graphs_on_range())
def test_solver_coloring_text_round_trip(g):
    c = solve_tcc(g).coloring
    assert coloring_from_text(c.as_text()) == c

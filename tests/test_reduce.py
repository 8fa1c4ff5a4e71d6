"""Minimality audit, reducible-edge finders, the native small-graph
enumeration, and the extension validation harness."""
from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from itertools import permutations, product

import pytest

from totalcolor import coloring, reduce
from totalcolor.coloring import (
    P3Certificate,
    TotalColoring,
    extend_p1,
    extend_p3,
    greedy_total,
    peel_kind,
    verify,
)
from totalcolor.graphs import SimpleGraph, build_graph, delete_edge
from totalcolor.reduce import (
    ExtensionReport,
    ReduceError,
    audit_minimality,
    brute_validate_extensions,
    canonical_mask,
    cut_vertices,
    enum_graph_masks,
    enum_graphs,
    find_p3_edge,
    find_reducible_edge,
    _pair_bit,
)

from helpers import complete_graph, cycle_graph, path_graph, random_graph


def wheel(n):
    return build_graph([(0, i) for i in range(1, n + 1)] + [(i, i % n + 1) for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# edge finders


def test_reducible_edge_on_tree_is_first_leaf_edge():
    g = path_graph(4)  # edges (0,1),(1,2),(2,3); kappa = 4
    assert find_reducible_edge(g, 4) == (0, 1)


def test_reducible_edge_lexicographic_choice():
    g = build_graph([(2, 3), (0, 5), (1, 4)])
    assert find_reducible_edge(g, 4) == (0, 5)


def test_reducible_edge_none_on_k4():
    # every degree sum is 6 > kappa = 5
    assert find_reducible_edge(complete_graph(4), 5) is None


def test_reducible_edge_empty_graph():
    assert find_reducible_edge(build_graph([]), 5) is None


def test_p3_edge_on_wheel():
    # hub degree 5 + rim degree 3 = 8 = kappa + 1, apexes are rim mates
    assert find_p3_edge(wheel(5), 7) == ((0, 1), 2)


def test_p3_edge_requires_triangle_and_exact_sum():
    assert find_p3_edge(complete_graph(4), 5) is None  # min end too fat
    star = build_graph([(0, i) for i in range(1, 6)] + [(1, 6), (1, 7)])
    # (0,1) has sum 5 + 3 = 8 = kappa + 1 but no common neighbor
    assert find_p3_edge(star, 7) is None


# ---------------------------------------------------------------------------
# audit


def test_audit_k4_at_five():
    a = audit_minimality(complete_graph(4), 5)
    assert a.results["P1"].passed and a.results["P1"].applicable
    assert a.results["P2"].passed
    assert a.results["P3"].passed
    assert not a.results["P4"].applicable  # kappa < 7
    assert not a.results["P5"].applicable  # kappa < 9
    claim1 = a.results["Claim1"]
    assert claim1.applicable and not claim1.passed
    assert claim1.witnesses == ((0, 1, 2, 3),)
    assert not a.passed
    assert [r.name for r in a.failures] == ["Claim1"]


def test_audit_rejects_small_kappa():
    with pytest.raises(ReduceError, match="kappa >= max degree"):
        audit_minimality(complete_graph(4), 4)


def test_audit_degree_two_vertex_fails_p2():
    a = audit_minimality(cycle_graph(5), 4)
    assert not a.results["P2"].passed
    assert ("min-degree", 0, 2) in a.results["P2"].witnesses


def test_audit_cut_vertex_fails_p2():
    # two K4s sharing vertex 0: min degree 3, one cut vertex
    g = build_graph(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]
    )
    assert cut_vertices(g) == [0]
    a = audit_minimality(g, 8)
    assert ("cut-vertex", 0) in a.results["P2"].witnesses


def test_audit_disconnected_fails_p2():
    g = build_graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    a = audit_minimality(g, 4)
    assert ("disconnected",) in a.results["P2"].witnesses


def test_audit_p3_names_triangle():
    # wheel: hub-rim edges sit in triangles with the tight degree sum
    a = audit_minimality(wheel(5), 7)
    assert not a.results["P3"].passed
    assert ((0, 1), 2) in a.results["P3"].witnesses


def test_audit_p4_p5_witnesses():
    # 4-vertex 0 with edge (0,1) in two triangles, plus a degree-7 star to
    # push kappa to 9 so both predicates apply
    g = build_graph(
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]
        + [(8, i) for i in range(9, 16)]
    )
    a = audit_minimality(g, 9)
    assert a.results["P4"].applicable and not a.results["P4"].passed
    assert (1, (0, 2)) in a.results["P4"].witnesses
    assert a.results["P5"].applicable and not a.results["P5"].passed
    assert ((0, 1), (2, 3)) in a.results["P5"].witnesses


def test_audit_triangle_free_passes_claim1_vacuously():
    a = audit_minimality(cycle_graph(6), 4)
    assert a.results["Claim1"].passed


def test_audit_witnesses_are_sound():
    # re-check every failure witness by direct definition evaluation
    rng = random.Random(20240818)
    for _ in range(30):
        g = random_graph(rng.randint(4, 8), rng.uniform(0.25, 0.7), rng.randint(0, 9999))
        kappa = g.max_degree() + 2 + rng.randint(0, 2)
        a = audit_minimality(g, kappa)
        half = (kappa - 1) // 2
        for u, v in a.results["P1"].witnesses:
            assert g.has_edge(u, v)
            assert min(g.degree(u), g.degree(v)) <= half
            assert g.degree(u) + g.degree(v) <= kappa
        for (e, w) in a.results["P3"].witnesses:
            assert g.has_edge(*e) and g.has_edge(e[0], w) and g.has_edge(e[1], w)
            assert g.degree(e[0]) + g.degree(e[1]) == kappa + 1
        for item in a.results["P2"].witnesses:
            if item[0] == "min-degree":
                assert g.degree(item[1]) == item[2] < 3
            elif item[0] == "cut-vertex":
                assert item[1] in cut_vertices(g)
        if a.results["P4"].applicable:
            for v, (x, y) in a.results["P4"].witnesses:
                assert g.degree(v) == 3 and g.has_edge(x, y)
                assert x in g.neighbors(v) and y in g.neighbors(v)
        if a.results["P5"].applicable:
            for (v, w), shared in a.results["P5"].witnesses:
                assert g.degree(v) == 4 and g.has_edge(v, w)
                assert len(shared) >= 2
                for s in shared:
                    assert g.has_edge(v, s) and g.has_edge(w, s)


def test_p1_consistency_with_finder():
    rng = random.Random(20240819)
    for _ in range(40):
        g = random_graph(rng.randint(3, 8), rng.uniform(0.2, 0.8), rng.randint(0, 9999))
        kappa = g.max_degree() + 2
        a = audit_minimality(g, kappa)
        assert a.results["P1"].passed == (find_reducible_edge(g, kappa) is None)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_frozen():
    assert [len(enum_graph_masks(n)) for n in range(1, 8)] == [
        1, 2, 4, 11, 34, 156, 1044,
    ]
    assert [len(enum_graphs(n, connected=True)) for n in range(1, 8)] == [
        1, 1, 2, 6, 21, 112, 853,
    ]


def test_enumeration_bounds():
    with pytest.raises(ReduceError):
        enum_graph_masks(0)
    with pytest.raises(ReduceError):
        enum_graph_masks(9)


def test_canonical_mask_is_relabeling_invariant():
    rng = random.Random(20240818)
    for n in (4, 5, 6):
        masks = enum_graph_masks(n)
        for _ in range(40):
            mask = rng.choice(masks)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = 0
            for j in range(n):
                for i in range(j):
                    if mask >> _pair_bit(i, j) & 1:
                        relabeled |= 1 << _pair_bit(perm[i], perm[j])
            assert canonical_mask(n, relabeled) == canonical_mask(n, mask) == mask


def test_enumerated_graphs_are_canonical_and_distinct():
    masks = enum_graph_masks(5)
    assert sorted(set(masks)) == list(masks)
    for m in masks:
        assert canonical_mask(5, m) == m


def test_connected_filter_matches_direct_check():
    def connected(g):
        if not g.vertices:
            return True
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(g.vertices)

    whole = enum_graphs(5)
    conn = enum_graphs(5, connected=True)
    assert len([g for g in whole if connected(g)]) == len(conn)
    for g in conn:
        assert connected(g)
        assert sorted(g.vertices) == [0, 1, 2, 3, 4]


def test_exhaustive_isomorphism_classes_small():
    # cross-check n = 4 the hard way: canonicalize every labeled graph
    seen = {canonical_mask(4, m) for m in range(1 << 6)}
    assert seen == set(enum_graph_masks(4))


def reference_canonical_mask(n, mask):
    """canonical_mask as it was written first, with its adjacency and
    refinement: a recursive walk over the permutations of each refined
    class, the pair bits computed at every leaf."""
    adj = [0] * n
    for j in range(n):
        for i in range(j):
            if mask >> _pair_bit(i, j) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    colors = [bin(a).count("1") for a in adj]
    while True:
        sigs = []
        for v in range(n):
            around = sorted(colors[w] for w in range(n) if adj[v] >> w & 1)
            sigs.append((colors[v], tuple(around)))
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            break
        colors = new
    classes = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    groups = [classes[c] for c in sorted(classes)]
    best = None
    pairs = [(i, j) for j in range(n) for i in range(j)]

    def walk(gi, placed):
        nonlocal best
        if gi == len(groups):
            m = 0
            for i, j in pairs:
                if adj[placed[i]] >> placed[j] & 1:
                    m |= 1 << _pair_bit(i, j)
            if best is None or m < best:
                best = m
            return
        for perm in permutations(groups[gi]):
            walk(gi + 1, placed + perm)

    walk(0, ())
    return best


def test_canonical_mask_matches_the_reference_walk():
    # every mask at n = 5, and a seeded sample of 2,000 at n = 6 and n = 7
    assert all(canonical_mask(5, m) == reference_canonical_mask(5, m) for m in range(1 << 10))
    rng = random.Random(20261019)
    for n in (6, 7):
        for _ in range(2000):
            mask = rng.getrandbits(n * (n - 1) // 2)
            assert canonical_mask(n, mask) == reference_canonical_mask(n, mask), (n, mask)


# ---------------------------------------------------------------------------
# extension harness


def test_harness_tiny_run_frozen():
    rep = brute_validate_extensions(3)
    assert rep.instances == 9
    assert rep.checks == 2437
    assert rep.failures == 0 and rep.certificates == []
    assert rep.truncated == 0  # everything at 3 vertices enumerates fully
    assert rep.p3_checks == 0  # degree arithmetic rules the tight case out


def test_harness_n4_exhaustive_over_instances():
    rep = brute_validate_extensions(4)
    assert rep.instances == 40
    assert rep.checks == 32205
    assert rep.failures == 0 and rep.certificates == []
    assert rep.truncated == 29


def test_harness_cap_truncates():
    rep = brute_validate_extensions(4, coloring_cap=10)
    assert rep.truncated == 39  # only one instance has 10 or fewer colorings
    assert rep.checks == 399
    assert rep.failures == 0


def test_harness_builds_each_reduced_graph_once(monkeypatch):
    # counted, not timed: an extension check tests its reduced coloring on
    # g itself, so g - uv is built once per instance, for its colorings,
    # and no check lists the edges of a graph.  A check costs two
    # properness passes, the gate's on its input and one on its output,
    # and lists conflicts only when an extension fails
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    graphs = sum(len(enum_graphs(n, connected=True)) for n in range(2, 5))
    for name in ("delete_edge", "_is_proper", "verify"):
        wrapper = counted(name, getattr(coloring, name))
        for module in (reduce, coloring):
            monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(SimpleGraph, "edges", counted("edges", SimpleGraph.edges))
    rep = brute_validate_extensions(4, coloring_cap=3)
    assert rep.failures == 0 and rep.checks == 120
    assert counts["delete_edge"] == rep.instances
    assert counts["_is_proper"] == 2 * rep.checks
    assert counts["verify"] == 0
    # one edge list per (graph, palette) for its eligible edges, and one
    # per instance for the elements of its colorings
    assert counts["edges"] == 2 * graphs + rep.instances < rep.checks


def _renamed(c, kappa, perm):
    """c with color x renamed perm[x - 1]."""
    return TotalColoring(
        kappa,
        {x: perm[color - 1] for x, color in c.vertex_color.items()},
        {e: perm[color - 1] for e, color in c.edge_color.items()},
    )


def test_extension_success_survives_renaming_the_colors():
    # enumerating reduced colorings up to palette renaming covers every
    # coloring only if renaming the colors never turns an extension that
    # succeeds into one that fails.  Every instance at n <= 4 (all P1),
    # and every P3 instance at n = 6 for the triangle cascade, whose branch
    # depends on which colors are free
    rng = random.Random(20261019)
    checks = Counter()
    for n, cap in ((2, 20), (3, 20), (4, 20), (6, 10)):
        for g in enum_graphs(n, connected=True):
            for kappa in (g.max_degree() + 2, g.max_degree() + 3):
                for u, v in g.edges():
                    kind = peel_kind(g, u, v, kappa)
                    if kind == "P1" and n <= 4:
                        apexes = [None]
                    elif kind == "P3":
                        apexes = g.common_neighbors(u, v)
                    else:
                        continue
                    reduced = delete_edge(g, (u, v))
                    colorings, _ = reduce._proper_colorings(reduced, kappa, cap, rng)
                    perms = [rng.sample(range(1, kappa + 1), kappa) for _ in range(3)]
                    for c, perm in product(colorings, perms):
                        renamed = _renamed(c, kappa, perm)
                        assert verify(reduced, renamed) == []
                        for w in apexes:
                            if w is None:
                                out = extend_p1(g, (u, v), renamed, kappa)
                            else:
                                out = extend_p3(g, (u, v), w, renamed, kappa)
                            assert isinstance(out, TotalColoring)
                            assert out.kappa == kappa and verify(g, out) == []
                            checks["P1" if w is None else "P3"] += 1
    assert checks == {"P1": 2355, "P3": 4440}


def test_harness_json_shape():
    rep = brute_validate_extensions(3)
    payload = json.loads(rep.to_json())
    assert sorted(payload.keys()) == ["certificates", "checks", "failures", "instances"]
    assert payload["failures"] == 0


def test_harness_rejects_large_bound():
    with pytest.raises(ReduceError, match="capped at 7"):
        brute_validate_extensions(8)


@pytest.mark.parametrize("n_max", [1, 0, -3])
def test_harness_rejects_small_bound(n_max):
    # these once returned an all-zero report, which reads like a pass
    with pytest.raises(ReduceError, match=f"needs n_max >= 2, got {n_max}$"):
        brute_validate_extensions(n_max)


@pytest.mark.parametrize("cap", [0, -1])
def test_harness_rejects_a_cap_below_one(cap):
    # cap 0 once checked nothing and reported no failure; cap -1 raised
    # a bare ValueError from inside the enumeration
    with pytest.raises(ReduceError, match=f"needs coloring_cap >= 1, got {cap}$"):
        brute_validate_extensions(3, coloring_cap=cap)


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_max", 3.5),
        ("n_max", True),
        ("coloring_cap", 2.5),
        ("coloring_cap", True),
        ("seed", None),
        ("seed", "7"),
        ("seed", False),
    ],
)
def test_harness_rejects_an_argument_that_is_no_int(name, value):
    # these once raised bare errors from range, islice or +, or, for
    # coloring_cap=True, ran as a cap of 1
    with pytest.raises(ReduceError, match=f"needs an int {name}, got {value!r}$"):
        brute_validate_extensions(**({"n_max": 3} | {name: value}))


def test_proper_colorings_order_each_node_by_random_draws():
    # a one-vertex graph at kappa 4 has four colorings, found in the color
    # order of the search's one node: over 2,400 seeds each of the 24
    # orders turns up about 100 times
    one = build_graph([], vertices=[0])
    orders = Counter()
    for seed in range(2400):
        found, truncated = reduce._proper_colorings(one, 4, 4, random.Random(seed))
        assert not truncated
        orders[tuple(c.vertex_color[0] for c in found)] += 1
    assert set(orders) == set(permutations(range(1, 5)))
    assert all(70 <= k <= 130 for k in orders.values()), orders
    # one seed gives the same colorings twice
    first = reduce._proper_colorings(wheel(4), 7, 30, random.Random(9))
    assert reduce._proper_colorings(wheel(4), 7, 30, random.Random(9)) == first
    assert len(first[0]) == 30 and first[1]


# ---------------------------------------------------------------------------
# Golden pins: what the peel rule decides on every small connected graph,
# and the exact failure records of the harness.  A refactor of the rule or
# the harness must reproduce them.


def _peel_decisions(n_max):
    """One line per (graph, kappa) for every connected graph on at most
    n_max vertices at kappa = Delta+1, Delta+2, Delta+3: both finders'
    picks and, from Delta+2 on, the full audit."""
    lines = []
    for n in range(1, n_max + 1):
        for g in enum_graphs(n, connected=True):
            delta = g.max_degree()
            for kappa in (delta + 1, delta + 2, delta + 3):
                row = [g.edges(), kappa, find_reducible_edge(g, kappa), find_p3_edge(g, kappa)]
                if kappa >= delta + 2:
                    row.append(sorted(audit_minimality(g, kappa).results.items()))
                lines.append(repr(row))
    return "\n".join(lines)


def test_golden_peel_decisions_small_graphs():
    text = _peel_decisions(6)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "dda7967fe3e481f12a34d06619db3ef664e468433d03c41696d221edf0be6a6b"
    )


def _failure_records(monkeypatch, outcome):
    """The certificates _run_extension records when both extension steps
    are replaced by `outcome` (a callable taking the step's arguments)."""
    monkeypatch.setattr(reduce, "extend_p1", lambda g, uv, c, kappa: outcome(c))
    monkeypatch.setattr(reduce, "extend_p3", lambda g, uv, w, c, kappa: outcome(c))
    g = wheel(4)
    c = greedy_total(delete_edge(g, (0, 1)))
    report = ExtensionReport()
    reduce._run_extension(report, g, (0, 1), None, c, 6)
    reduce._run_extension(report, g, (0, 1), 2, c, 6)
    assert report.failures == 2
    return [list(d.items()) for d in report.certificates]


def _shared(apex):
    return [
        ("edges", [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 4], [2, 3], [3, 4]]),
        ("edge", [0, 1]),
        ("apex", apex),
        ("kappa", 6),
    ]


def test_golden_failure_record_exception(monkeypatch):
    def boom(c):
        raise ValueError("no room")

    assert _failure_records(monkeypatch, boom) == [
        _shared(None) + [("kind", "exception: no room")],
        _shared(2) + [("kind", "exception: no room")],
    ]


def test_golden_failure_record_cascade_certificate(monkeypatch):
    cert = P3Certificate(
        edge=(0, 1), apex=2, kappa=6,
        u_used=frozenset({3, 1, 2}), v_used=frozenset({4}), w_used=frozenset({6, 5}),
    )
    extra = [("kind", "cascade exhausted"), ("u_used", [1, 2, 3]), ("w_used", [5, 6])]
    assert _failure_records(monkeypatch, lambda c: cert) == [
        _shared(None) + extra,
        _shared(2) + extra,
    ]


def test_golden_failure_record_improper_result(monkeypatch):
    def flat(c):
        out = c.copy()
        for v in out.vertex_color:
            out.vertex_color[v] = 1
        out.edge_color[(0, 1)] = 1
        return out

    kind = "bad extension: [('vv', 0, 1), ('vv', 0, 2), ('vv', 0, 3)]"
    assert _failure_records(monkeypatch, flat) == [
        _shared(None) + [("kind", kind)],
        _shared(2) + [("kind", kind)],
    ]


def test_golden_failure_record_over_palette(monkeypatch):
    def shifted(c):
        # proper and within its own palette, but two colors past kappa
        out = greedy_total(wheel(4))
        out.vertex_color = {v: x + 2 for v, x in out.vertex_color.items()}
        out.edge_color = {e: x + 2 for e, x in out.edge_color.items()}
        out.kappa = 7
        return out

    assert _failure_records(monkeypatch, shifted) == [
        _shared(None) + [("kind", "bad extension: []")],
        _shared(2) + [("kind", "bad extension: []")],
    ]

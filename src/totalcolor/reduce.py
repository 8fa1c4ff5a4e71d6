"""Could this graph be a minimal obstruction to the Delta+2 bound?

The audit here packages the structural consequences of deletion-minimality
(reducible edges, connectivity, triangle and neighborhood constraints, and
the no-K4 claim) as refutation checks: any failed check certifies the
graph is *not* a minimal counterexample.  The module also carries the
desk-scale validation drivers: a native isomorphism-reduced enumeration of
small graphs and a harness that hammers the extension procedures over
them.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, permutations

from .coloring import (
    P3Certificate,
    TotalColoring,
    _paint,
    _search,
    conflict_lists,
    extend_p1,
    extend_p3,
    peel_kind,
    verify,
)
from .graphs import SimpleGraph, build_graph, check_property_P, delete_edge, find_k4s


class ReduceError(ValueError):
    """Bad input to a minimality or enumeration operation."""


# ---------------------------------------------------------------------------
# Edge finders


def find_reducible_edge(g: SimpleGraph, kappa: int):
    """The first edge (lexicographically) that P1 peels, or None."""
    for u, v in g.edges():
        if peel_kind(g, u, v, kappa) == "P1":
            return (u, v)
    return None


def find_p3_edge(g: SimpleGraph, kappa: int):
    """The first edge in P3's tight case that lies on a triangle, as
    ((u, v), w) with w the smallest apex, or None."""
    for u, v in g.edges():
        if peel_kind(g, u, v, kappa) == "P3":
            common = g.common_neighbors(u, v)
            if common:
                return (u, v), min(common)
    return None


# ---------------------------------------------------------------------------
# The minimality audit


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    passed: bool
    witnesses: tuple = ()


@dataclass
class MinimalityAudit:
    kappa: int
    results: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values() if r.applicable)

    @property
    def failures(self) -> list:
        return [r for r in self.results.values() if r.applicable and not r.passed]


def _is_connected(g: SimpleGraph, skip=None) -> bool:
    """Whether g, less the vertex `skip` if one is given, is connected."""
    rest = [v for v in g.vertices if v != skip]
    if not rest:
        return True
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w != skip and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(rest)


def cut_vertices(g: SimpleGraph) -> list:
    """Vertices whose removal disconnects the graph (plain quadratic scan;
    the audit only ever runs at desk scale)."""
    if len(g.vertices) < 3 or not _is_connected(g):
        return []
    return [v for v in g.vertices if not _is_connected(g, skip=v)]


def audit_minimality(g: SimpleGraph, kappa: int) -> MinimalityAudit:
    """Run every refutation check at palette size kappa.  Requires
    kappa >= max degree + 2; each failed check names witnesses showing the
    graph cannot be a deletion-minimal counterexample."""
    floor_kappa = g.max_degree() + 2
    if kappa < floor_kappa:
        raise ReduceError(
            f"audit needs kappa >= max degree + 2 = {floor_kappa}, got {kappa}"
        )
    kinds = {(u, v): peel_kind(g, u, v, kappa) for u, v in g.edges()}
    results = {}

    p1_bad = tuple(e for e, kind in kinds.items() if kind == "P1")
    results["P1"] = CheckResult("P1", True, not p1_bad, p1_bad)

    p2_wit = []
    for v in g.vertices:
        if g.degree(v) < 3:
            p2_wit.append(("min-degree", v, g.degree(v)))
    if not g.vertices or len(g.vertices) < 3:
        p2_wit.append(("too-small", len(g.vertices)))
    elif not _is_connected(g):
        p2_wit.append(("disconnected",))
    else:
        for v in cut_vertices(g):
            p2_wit.append(("cut-vertex", v))
    results["P2"] = CheckResult("P2", True, not p2_wit, tuple(p2_wit))

    p3_bad = [
        (e, w)
        for e, kind in kinds.items()
        if kind == "P3"
        for w in sorted(g.common_neighbors(*e))
    ]
    results["P3"] = CheckResult("P3", True, not p3_bad, tuple(p3_bad))

    p4_app = kappa >= 7
    p4_bad = []
    if p4_app:
        for v in g.vertices:
            if g.degree(v) != 3:
                continue
            nbrs = g.neighbors(v)
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
                    if g.has_edge(a, b):
                        p4_bad.append((v, (a, b)))
    results["P4"] = CheckResult("P4", p4_app, not p4_bad, tuple(p4_bad))

    p5_app = kappa >= 9
    p5_bad = []
    if p5_app:
        for v in g.vertices:
            if g.degree(v) != 4:
                continue
            for w in g.neighbors(v):
                shared = g.common_neighbors(v, w)
                if len(shared) >= 2:
                    p5_bad.append(((v, w), tuple(sorted(shared))))
    results["P5"] = CheckResult("P5", p5_app, not p5_bad, tuple(p5_bad))

    has_p = check_property_P(g).holds
    k4s = tuple(find_k4s(g)) if has_p else ()
    results["Claim1"] = CheckResult("Claim1", has_p, not k4s, k4s)

    return MinimalityAudit(kappa=kappa, results=results)


# ---------------------------------------------------------------------------
# Native enumeration of small graphs up to isomorphism
#
# Graphs on 0..n-1 are packed as edge bitmasks with the pair (i, j), i < j,
# at bit j*(j-1)//2 + i.  Growing a graph by one vertex then appends fresh
# bits, so a parent mask embeds in every child unchanged.


def _pair_bit(i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def _adjacency(n: int, mask: int) -> list:
    adj = [0] * n
    for j in range(n):
        for i in range(j):
            if mask >> _pair_bit(i, j) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _refined_classes(n: int, adj: list) -> list:
    """Partition vertices by iterated degree refinement; the class order is
    an isomorphism invariant, so canonical labelings only permute within
    classes."""
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
    return [classes[c] for c in sorted(classes)]


def canonical_mask(n: int, mask: int) -> int:
    """The least edge mask over the relabelings that keep the refined
    degree classes in order (not over all relabelings); since that order is
    an isomorphism invariant, two graphs are isomorphic iff their canonical
    masks agree."""
    adj = _adjacency(n, mask)
    groups = _refined_classes(n, adj)
    best = None
    pairs = [(i, j) for j in range(n) for i in range(j)]

    def walk(gi: int, placed: tuple) -> None:
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


@lru_cache(maxsize=None)
def enum_graph_masks(n: int) -> tuple:
    """Canonical edge masks of every graph on n vertices, one per
    isomorphism class, sorted.  Orderly generation: attach vertex n-1 to
    each parent by every neighborhood subset, then deduplicate."""
    if n < 1 or n > 8:
        raise ReduceError(f"enumeration supports 1..8 vertices, got {n}")
    if n == 1:
        return (0,)
    shift = (n - 1) * (n - 2) // 2
    out = set()
    for parent in enum_graph_masks(n - 1):
        for sub in range(1 << (n - 1)):
            out.add(canonical_mask(n, parent | (sub << shift)))
    return tuple(sorted(out))


def graph_from_mask(n: int, mask: int) -> SimpleGraph:
    edges = [(i, j) for j in range(n) for i in range(j) if mask >> _pair_bit(i, j) & 1]
    return build_graph(edges, vertices=range(n))


def enum_graphs(n: int, connected: bool = False) -> list:
    """All graphs on n vertices up to isomorphism, as SimpleGraphs on
    vertex set 0..n-1; optionally connected ones only."""
    graphs = (graph_from_mask(n, m) for m in enum_graph_masks(n))
    return [g for g in graphs if not connected or _is_connected(g)]


# ---------------------------------------------------------------------------
# Extension validation harness


@dataclass
class ExtensionReport:
    instances: int = 0
    failures: int = 0
    certificates: list = field(default_factory=list)
    truncated: int = 0
    p1_checks: int = 0
    p3_checks: int = 0

    @property
    def checks(self) -> int:
        return self.p1_checks + self.p3_checks

    def to_json(self) -> str:
        return json.dumps(
            {
                "instances": self.instances,
                "checks": self.checks,
                "failures": self.failures,
                "certificates": self.certificates,
            },
            indent=2,
        )


def _proper_colorings(g: SimpleGraph, kappa: int, cap: int, rng) -> tuple:
    """Up to cap distinct proper colorings, found by backtracking with a
    shuffled color order at each node (so a truncated run is not just a
    lexicographic prefix).  Second result: True when more colorings exist
    beyond the cap."""
    els, nbrs = conflict_lists(g)

    def shuffled(assigned, r):
        colors = list(range(1, kappa + 1))
        rng.shuffle(colors)
        return colors

    search = _search(nbrs, range(len(els)), shuffled)
    found = [_paint(TotalColoring(kappa), els, colors) for colors in islice(search, cap + 1)]
    return found[:cap], len(found) > cap


def brute_validate_extensions(
    n_max: int, coloring_cap: int = 1000, seed: int = 20240819
) -> ExtensionReport:
    """Run both extension procedures over every connected graph with at
    most n_max vertices, both palette sizes Delta+2 and Delta+3, and every
    eligible edge, feeding each up to coloring_cap proper colorings of the
    reduced graph.  Any exception, failed verification, or cascade
    certificate is recorded as a failure."""
    if n_max > 7:
        raise ReduceError("extension validation is capped at 7 vertices")
    report = ExtensionReport()
    instance_no = 0
    for n in range(2, n_max + 1):
        for g in enum_graphs(n, connected=True):
            for kappa in (g.max_degree() + 2, g.max_degree() + 3):
                for u, v in g.edges():
                    kind = peel_kind(g, u, v, kappa)
                    p1_ok = kind == "P1"
                    p3_apexes = sorted(g.common_neighbors(u, v)) if kind == "P3" else []
                    if not p1_ok and not p3_apexes:
                        continue
                    instance_no += 1
                    report.instances += 1
                    rng = random.Random(seed + 1_000_003 * instance_no)
                    reduced = delete_edge(g, (u, v))
                    colorings, truncated = _proper_colorings(
                        reduced, kappa, coloring_cap, rng
                    )
                    if truncated:
                        report.truncated += 1
                    for c in colorings:
                        if p1_ok:
                            report.p1_checks += 1
                            _run_extension(report, g, (u, v), None, c, kappa)
                        for w in p3_apexes:
                            report.p3_checks += 1
                            _run_extension(report, g, (u, v), w, c, kappa)
    return report


def _run_extension(report, g, uv, apex, c, kappa) -> None:
    try:
        if apex is None:
            out = extend_p1(g, uv, c, kappa)
        else:
            out = extend_p3(g, uv, apex, c, kappa)
    except Exception as exc:  # any rejection here is a harness failure
        failure = {"kind": f"exception: {exc}"}
    else:
        if isinstance(out, P3Certificate):
            failure = {
                "kind": "cascade exhausted",
                "u_used": sorted(out.u_used),
                "w_used": sorted(out.w_used),
            }
        else:
            bad = verify(g, out)
            if not bad and out.colors_used() <= kappa:
                return
            failure = {"kind": f"bad extension: {bad[:3]}"}
    report.failures += 1
    report.certificates.append(
        {"edges": [list(e) for e in g.edges()], "edge": list(uv), "apex": apex, "kappa": kappa}
        | failure
    )

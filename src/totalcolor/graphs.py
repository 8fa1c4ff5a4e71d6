"""Undirected simple graphs plus the K4/diamond structure checks.

Vertices are nonnegative integers (any hashable, order-comparable ids work,
but the text format only supports ints).  Graphs are immutable: surgery
functions return new instances, so intermediate graphs can be kept around
freely during reductions.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Malformed graph input: loops, duplicate edges, missing elements."""


def edge_key(u, v) -> tuple:
    return (u, v) if u <= v else (v, u)


class SimpleGraph:
    """Immutable undirected simple graph.

    `adj` maps each vertex to the sorted tuple of its neighbors; `vertices`
    is the sorted tuple of all vertex ids (including isolated ones).
    """

    __slots__ = ("vertices", "adj", "_nset")

    def __init__(self, vertices: Iterable, adj: dict):
        self.vertices = tuple(sorted(vertices))
        self.adj = {v: tuple(adj.get(v, ())) for v in self.vertices}
        self._nset = {v: frozenset(nbrs) for v, nbrs in self.adj.items()}

    def degree(self, v) -> int:
        return len(self.adj[v])

    def neighbors(self, v) -> tuple:
        return self.adj[v]

    def has_edge(self, u, v) -> bool:
        return u in self._nset and v in self._nset[u]

    def common_neighbors(self, u, v) -> frozenset:
        return self._nset[u] & self._nset[v]

    def edges(self) -> list[tuple]:
        return [(u, w) for u in self.vertices for w in self.adj[u] if u < w]

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def max_degree(self) -> int:
        return max((len(n) for n in self.adj.values()), default=0)

    def min_degree(self) -> int:
        return min((len(n) for n in self.adj.values()), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.adj == other.adj

    def __hash__(self):
        return hash((self.vertices, tuple(self.adj[v] for v in self.vertices)))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={len(self.vertices)}, m={self.num_edges()})"


def build_graph(edge_list: Sequence[tuple], vertices: Iterable = ()) -> SimpleGraph:
    """Build a simple graph from an edge list (plus optional isolated vertices).

    Rejects loops and duplicate edges by name, per the input contract.
    """
    adj: dict = {v: set() for v in vertices}
    seen = set()
    for u, v in edge_list:
        if u == v:
            raise GraphError(f"loop ({u},{v}) is not allowed")
        key = edge_key(u, v)
        if key in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(key)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return SimpleGraph(adj.keys(), {v: tuple(sorted(ns)) for v, ns in adj.items()})


def delete_edge(g: SimpleGraph, e: tuple) -> SimpleGraph:
    """Remove one edge; both endpoints stay, even if now isolated."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not in graph")
    adj = dict(g.adj)
    adj[u] = tuple(x for x in adj[u] if x != v)
    adj[v] = tuple(x for x in adj[v] if x != u)
    return SimpleGraph(g.vertices, adj)


def add_edge(g: SimpleGraph, e: tuple) -> SimpleGraph:
    u, v = e
    if u == v:
        raise GraphError(f"loop ({u},{v}) is not allowed")
    if g.has_edge(u, v):
        raise GraphError(f"duplicate edge ({u},{v})")
    adj = dict(g.adj)
    adj[u] = tuple(sorted(adj.get(u, ()) + (v,)))
    adj[v] = tuple(sorted(adj.get(v, ()) + (u,)))
    verts = set(g.vertices) | {u, v}
    return SimpleGraph(verts, adj)


@dataclass(frozen=True)
class DiamondWitness:
    """An induced K4-minus-an-edge.

    hub_pair spans the shared edge (the two vertices of degree 3 inside the
    diamond); wing_pair is the nonadjacent pair.  Both are sorted.
    """

    hub_pair: tuple
    wing_pair: tuple

    def vertex_set(self) -> frozenset:
        return frozenset(self.hub_pair) | frozenset(self.wing_pair)


def find_k4s(g: SimpleGraph) -> list[tuple]:
    """All 4-cliques, each as a sorted vertex tuple, listed once.

    Each clique is discovered through its lexicographically smallest edge:
    scan edges (a,b) with a < b, then pick adjacent pairs among the common
    neighbors that exceed b.
    """
    out = []
    for a in g.vertices:
        for b in g.adj[a]:
            if b <= a:
                continue
            common = sorted(x for x in g.common_neighbors(a, b) if x > b)
            for c, d in combinations(common, 2):
                if g.has_edge(c, d):
                    out.append((a, b, c, d))
    return sorted(out)


def find_induced_diamonds(g: SimpleGraph) -> list[DiamondWitness]:
    """All induced diamonds, keyed by their hub edge.

    The hub edge of an induced diamond is unique (it is the only edge whose
    endpoints both have degree 3 within the subgraph), so iterating over
    edges and nonadjacent common-neighbor pairs finds each witness once.
    """
    out = []
    for a in g.vertices:
        for b in g.adj[a]:
            if b <= a:
                continue
            common = sorted(g.common_neighbors(a, b))
            for c, d in combinations(common, 2):
                if not g.has_edge(c, d):
                    out.append(DiamondWitness(hub_pair=(a, b), wing_pair=(c, d)))
    return sorted(out, key=lambda w: (w.hub_pair, w.wing_pair))


@dataclass(frozen=True)
class PViolation:
    kind: str  # "K4" or "diamond"
    vertices: tuple
    degrees: tuple


@dataclass
class PropertyPReport:
    holds: bool
    violations: list


def check_property_P(g: SimpleGraph) -> PropertyPReport:
    """Check both structural conditions; degrees are taken in the whole graph.

    Condition 1: every K4 has a vertex of degree <= 4.
    Condition 2: every induced diamond has hub degrees both <= 5, or wing
    degrees both <= 3.
    """
    violations = []
    for quad in find_k4s(g):
        degs = tuple(g.degree(v) for v in quad)
        if min(degs) > 4:
            violations.append(PViolation("K4", quad, degs))
    for w in find_induced_diamonds(g):
        hub_degs = tuple(g.degree(v) for v in w.hub_pair)
        wing_degs = tuple(g.degree(v) for v in w.wing_pair)
        if max(hub_degs) > 5 and max(wing_degs) > 3:
            violations.append(
                PViolation("diamond", w.hub_pair + w.wing_pair, hub_degs + wing_degs)
            )
    return PropertyPReport(holds=not violations, violations=violations)


# ---------------------------------------------------------------------------
# Edge-list text format: one "u v" pair per line, '#' comments, optional
# header "vertices N" declaring vertex ids 0..N-1 (for isolated vertices).

def parse_edge_list(text: str) -> SimpleGraph:
    declared = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if len(parts) != 2 or not parts[1].isdigit():
                raise GraphError(f"line {lineno}: expected 'vertices N'")
            if declared is not None:
                raise GraphError(f"line {lineno}: repeated 'vertices' header")
            declared = int(parts[1])
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: vertex ids must be integers") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: vertex ids must be nonnegative")
        edges.append((u, v))
    base = range(declared) if declared is not None else ()
    g = build_graph(edges, vertices=base)
    if declared is not None:
        high = [v for v in g.vertices if v >= declared]
        if high:
            raise GraphError(
                f"vertex id {high[0]} exceeds declared count {declared}"
            )
    return g


def dump_edge_list(g: SimpleGraph) -> str:
    """Inverse of parse_edge_list for graphs with contiguous 0-based ids."""
    n = (max(g.vertices) + 1) if g.vertices else 0
    lines = [f"vertices {n}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"

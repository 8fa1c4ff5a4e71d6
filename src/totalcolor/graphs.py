"""Undirected simple graphs plus the K4/diamond structure checks.

Vertices are nonnegative integers (any hashable, order-comparable ids work,
but the text format only supports ints).  A graph is one dict from each
vertex, ascending, to the ascending tuple of its neighbors.  Graphs are
immutable: edits return new graphs that share every row they leave
unchanged, so intermediate graphs can be kept around during reductions.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable


class GraphError(ValueError):
    """Malformed graph input: loops, duplicate edges, missing elements."""


def edge_key(u, v) -> tuple:
    return (u, v) if u <= v else (v, u)


class SimpleGraph:
    """Immutable undirected simple graph: `adj`, stored as given, maps each
    vertex, ascending, to the ascending tuple of its neighbors, so only
    `build_graph` and the edits here construct one.  `vertices` is the
    tuple of its keys, isolated vertices included.  The edge count is
    summed over the rows on first use and kept."""

    __slots__ = ("vertices", "adj", "_num_edges")

    def __init__(self, adj: dict):
        self.adj = adj
        self.vertices = tuple(adj)
        self._num_edges = None

    def degree(self, v) -> int:
        return len(self.adj[v])

    def neighbors(self, v) -> tuple:
        return self.adj[v]

    def has_edge(self, u, v) -> bool:
        return v in self.adj.get(u, ())

    def common_neighbors(self, u, v) -> tuple:
        """The common neighbors of u and v, ascending."""
        other = set(self.adj[v])
        return tuple(x for x in self.adj[u] if x in other)

    def edges(self) -> list[tuple]:
        return [(u, w) for u in self.vertices for w in self.adj[u] if u < w]

    def num_edges(self) -> int:
        if self._num_edges is None:
            self._num_edges = sum(map(len, self.adj.values())) // 2
        return self._num_edges

    def max_degree(self) -> int:
        return max((len(n) for n in self.adj.values()), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.adj == other.adj

    def __repr__(self) -> str:
        return f"SimpleGraph(n={len(self.vertices)}, m={self.num_edges()})"


def build_graph(edge_list: Iterable[tuple], vertices: Iterable = ()) -> SimpleGraph:
    """Build a simple graph from an edge list plus optional isolated
    vertices; the graph does not depend on the order of either.  Rejects
    loops and duplicate edges by name, per the input contract."""
    adj: dict = {v: set() for v in vertices}
    for u, v in edge_list:
        if u == v:
            raise GraphError(f"loop ({u},{v}) is not allowed")
        row = adj.setdefault(u, set())
        if v in row:
            raise GraphError(f"duplicate edge ({u},{v})")
        row.add(v)
        adj.setdefault(v, set()).add(u)
    return SimpleGraph({v: tuple(sorted(adj[v])) for v in sorted(adj)})


def graph_of_edge_set(edges: Iterable[tuple], vertices: Iterable) -> SimpleGraph:
    """build_graph without its loop and duplicate tests, for edges that are
    distinct pairs (u, w) with u < w, such as a drawing's distinct segment
    origins, over ascending vertices that hold every end."""
    adj: dict = {v: [] for v in vertices}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    return SimpleGraph({v: tuple(sorted(row)) for v, row in adj.items()})


def delete_edge(g: SimpleGraph, e: tuple) -> SimpleGraph:
    """Remove one edge; both endpoints stay, even if now isolated."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not in graph")
    adj = dict(g.adj)
    adj[u] = tuple(x for x in adj[u] if x != v)
    adj[v] = tuple(x for x in adj[v] if x != u)
    return SimpleGraph(adj)


def add_edge(g: SimpleGraph, e: tuple) -> SimpleGraph:
    """g plus e, which may bring in a vertex; rejects a loop or an edge of g."""
    return build_graph([*g.edges(), e], vertices=g.vertices)


@dataclass(frozen=True)
class DiamondWitness:
    """An induced K4-minus-an-edge.

    hub_pair spans the shared edge (the two vertices of degree 3 inside the
    diamond); wing_pair is the nonadjacent pair.  Both are sorted.
    """

    hub_pair: tuple
    wing_pair: tuple


def _edges_with_common_neighbors(g: SimpleGraph):
    """Each edge (a, b) with a < b, in lexicographic order, with the common
    neighbors of a and b ascending: b's row read against one set of a's."""
    for a, row in g.adj.items():
        row_a = set(row)
        for b in row:
            if b > a:
                yield a, b, [x for x in g.adj[b] if x in row_a]


def find_k4s(g: SimpleGraph) -> list[tuple]:
    """All 4-cliques in lexicographic order, each a sorted vertex tuple.

    Vertices are ranked by (degree, id) and each edge points to its higher
    rank end (Chiba and Nishizeki, SIAM J. Comput. 1985).  A clique is
    found once, from its lowest-ranked vertex u: v out of u, w out of both,
    x out of all three.  An out-set holds O(sqrt(m)) vertices, and the
    whole listing is linear on graphs of bounded arboricity, planar and
    1-toroidal ones among them.
    """
    adj = g.adj
    # the rows are keyed in ascending id order, so a stable sort by degree
    # ranks by (degree, id)
    rank = {v: i for i, v in enumerate(sorted(adj, key=lambda v: len(adj[v])))}
    out = {}
    for v, row in adj.items():
        r = rank[v]
        out[v] = {w for w in row if rank[w] > r}
    found = []
    for u, out_u in out.items():
        for v in out_u:
            common = out_u & out[v]
            for w in common:
                for x in common & out[w]:
                    found.append(tuple(sorted((u, v, w, x))))
    found.sort()
    return found


def find_induced_diamonds(g: SimpleGraph) -> list[DiamondWitness]:
    """All induced diamonds, keyed by their hub edge, in (hub_pair,
    wing_pair) order.

    The hub edge of an induced diamond is unique (it is the only edge whose
    endpoints both have degree 3 within the subgraph), so iterating over
    edges and nonadjacent common-neighbor pairs finds each witness once.
    """
    return [
        DiamondWitness(hub_pair=(a, b), wing_pair=(c, d))
        for a, b, common in _edges_with_common_neighbors(g)
        for c, d in combinations(common, 2)
        if not g.has_edge(c, d)
    ]


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

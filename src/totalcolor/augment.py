"""Augmentation: insert new edges into big faces until no face of size >= 4
carries two non-consecutive true boundary vertices of small original degree.

Each insertion is a chord across one face: two fresh darts are spliced into
the endpoint rotations so that the host face splits into exactly two faces.
embedding.ChordEdit draws the chords and checks each one locally; this
module keeps the policy: which faces are eligible, the order in which they
are split, and the insertion log.  The resulting embedded graph may contain
parallel segments, but only between pairs already joined once; all such
extra segments are new edges (origin None), since the input graphs are
simple.

Termination: every insertion adds 2 darts and 1 face, so the quantity
(total darts) - 3*(faces) drops by 1 each step, and it is bounded below by
0 because every face has size >= 3.

Incrementality: whether a face is eligible depends only on its boundary
darts, their owners and kinds, and degrees and adjacency in the fixed
graph G.  An insertion changes only the face it splits, so every other
face keeps its cached answer, and only the two child faces are tested.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .embedding import TRUE, ChordEdit, EmbeddedGraph
from .graphs import SimpleGraph


@dataclass(frozen=True)
class InsertionRecord:
    step: int
    face: tuple  # boundary vertex occurrences at insertion time
    pair: tuple  # sorted endpoints of the inserted new edge


@dataclass(frozen=True)
class VertexClass:
    d1: int | None  # degree in G; None for crossing vertices
    d2: int  # degree in G*
    kind: str  # "true" | "crossing"
    size_class: str  # "big" | "small"
    new_incident: bool


class AugmentedGraph:
    """G* together with its provenance: base G†, the underlying simple
    graph, the insertion log, and the per-vertex classification.  With an
    empty insertion log, star and base are the same object."""

    def __init__(self, g, base, star, insertions):
        self.g: SimpleGraph = g
        self.base: EmbeddedGraph = base
        self.star: EmbeddedGraph = star
        self.insertions: list[InsertionRecord] = insertions
        self.classification: dict = classify_vertices(self)

    def new_segments(self) -> list[tuple]:
        return sorted(k for k, edge in self.star.segment_origin.items() if edge is None)

    def new_edge_count(self) -> int:
        return len(self.new_segments())


def _eligible_pair(boundary, owner, kinds, g):
    """Smallest eligible (i, j, u, v) in one face, or None.

    Positions are boundary-occurrence indices; eligibility requires two
    distinct true vertices of G-degree <= 5 at non-consecutive positions
    (cyclically).  Preference order: vertex pair, then positions.
    """
    occ = [owner[d] for d in boundary]
    k = len(occ)
    best = None
    for i in range(k):
        u = occ[i]
        if kinds[u] != TRUE or g.degree(u) > 5:
            continue
        for j in range(i + 1, k):
            v = occ[j]
            if kinds[v] != TRUE or g.degree(v) > 5 or u == v:
                continue
            if j - i < 2 or k - (j - i) < 2:
                continue
            key = ((u, v) if u < v else (v, u), i, j)
            if best is None or key < best[0]:
                best = (key, (i, j, u, v))
    return None if best is None else best[1]


def build_g_star(gd: EmbeddedGraph, g: SimpleGraph) -> AugmentedGraph:
    """Run the insertion loop to its fixpoint and classify the result.

    When no face is eligible the insertion log is empty and G* is gd
    itself (`a.star is a.base`): nothing is copied, validated or traced
    again.  Otherwise embedding.ChordEdit draws each insertion on a copy
    of gd and checks it locally; G* is not validated in full again, and
    its faces are the pieces the loop made, not traced again.

    Deterministic order: among eligible faces pick the one whose boundary
    holds the smallest dart id, then the smallest vertex pair within it.
    A pair already adjacent in G may still receive a (parallel) new edge
    through another face region, as the paper's rule allows.
    """
    owner = gd.owner
    kinds = gd.vertex_kind
    # (smallest dart, boundary, pick) per eligible face; every dart lies in
    # exactly one face, so the smallest dart identifies the face and popping
    # the heap follows the deterministic order above
    heap: list = []

    def push(fb):
        if len(fb) >= 4:
            pick = _eligible_pair(fb, owner, kinds, g)
            if pick is not None:
                heapq.heappush(heap, (min(fb), fb, pick))

    for f in gd.faces():
        push(f)
    if not heap:
        # nothing to insert: G* is the validated base drawing itself
        return AugmentedGraph(g, gd, gd, [])
    edit = ChordEdit(gd)
    owner = edit.owner
    log: list[InsertionRecord] = []
    while heap:
        _, fb, (i, j, u, v) = heapq.heappop(heap)
        log.append(
            InsertionRecord(
                step=len(log),
                face=tuple(owner[d] for d in fb),
                pair=(u, v) if u < v else (v, u),
            )
        )
        for piece in edit.split(fb, i, j):
            push(piece)
    return AugmentedGraph(g, gd, edit.finish(), log)


def classify_vertices(a: AugmentedGraph) -> dict:
    """(d1, d2) plus big/small for every vertex of G*, in ascending
    vertex order.  Vertices of one class share one VertexClass.

    Big means (3,5) or d2 >= 6; crossing vertices are always small (their
    degree is pinned at 4).
    """
    table = {}
    shared: dict = {}  # (d1, d2, kind, new_incident) -> its VertexClass
    star = a.star
    rotation, kinds, adj = star.rotation, star.vertex_kind, a.g.adj
    new_darts = star.new_darts()
    for v in star.vertices():
        kind = kinds[v]
        rot = rotation[v]
        key = (
            len(adj[v]) if kind == TRUE else None,
            len(rot),
            kind,
            not new_darts.isdisjoint(rot),
        )
        c = shared.get(key)
        if c is None:
            d1, d2, _, new_incident = key
            big = kind == TRUE and ((d1 == 3 and d2 == 5) or d2 >= 6)
            c = shared[key] = VertexClass(
                d1=d1,
                d2=d2,
                kind=kind,
                size_class="big" if big else "small",
                new_incident=new_incident,
            )
        table[v] = c
    return table


def check_fixpoint(a: AugmentedGraph) -> bool:
    """True iff no face of G* still holds an eligible insertion pair."""
    star = a.star
    for f in star.faces():
        if len(f) < 4:
            continue
        if _eligible_pair(f, star.owner, star.vertex_kind, a.g):
            return False
    return True


def augment_report(a: AugmentedGraph) -> dict:
    """JSON-ready summary: insertion log, face census, classification."""
    return {
        "new_edges": a.new_edge_count(),
        "insertions": [
            {"step": r.step, "face": list(r.face), "pair": list(r.pair)}
            for r in a.insertions
        ],
        "face_census": {str(size): n for size, n in a.star.face_census().items()},
        "classification": {
            str(v): {
                "d1": c.d1,
                "d2": c.d2,
                "kind": c.kind,
                "size_class": c.size_class,
                "new_incident": c.new_incident,
            }
            for v, c in a.classification.items()
        },
    }

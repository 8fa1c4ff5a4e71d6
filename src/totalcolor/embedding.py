"""Combinatorial 1-embeddings on the plane or torus.

An embedding is a rotation system over *darts* (half-segments): every
segment of the drawing contributes two darts related by `twin`, and each
vertex owns a cyclic sequence of darts (its rotation, conventionally
counterclockwise).  Crossing points of the drawing are materialized as
degree-4 "crossing" vertices, so the structure directly represents the
associated graph of a 1-embedded simple graph: true vertices carry the
original adjacency, and every crossing vertex interleaves the two original
edges that cross there.

Face tracing uses the successor rule next(d) = rotation-successor of
twin(d).  The orientation this induces is a convention; only face sizes and
incidences matter downstream.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graphs import SimpleGraph

TRUE = "true"
CROSSING = "crossing"
SURFACES = ("plane", "torus")


class EmbedError(ValueError):
    """Violation of the 1-embedding invariants or a malformed input file."""


@dataclass(frozen=True)
class Face:
    """One face, as the cyclic dart sequence of its boundary walk."""

    boundary: tuple

    @property
    def size(self) -> int:
        return len(self.boundary)


def seg_key(d: int, twin: Mapping[int, int]) -> tuple:
    e = twin[d]
    return (d, e) if d < e else (e, d)


class EmbeddedGraph:
    """Validated rotation system with vertex kinds and segment origins.

    segment_origin maps each segment key (sorted dart pair) to the edge of
    the underlying simple graph it belongs to, or None for a segment that
    is not part of any original edge (a "new edge" added by augmentation).
    When omitted it is derived: true-true segments originate themselves,
    and the two opposite segment pairs at a crossing inherit the edge
    joining their far endpoints.
    """

    __slots__ = (
        "rotation",
        "twin",
        "owner",
        "vertex_kind",
        "surface",
        "segment_origin",
        "_faces",
    )

    def __init__(
        self,
        rotation: Mapping[int, Sequence[int]],
        twin: Mapping[int, int],
        vertex_kind: Mapping[int, str],
        surface: str,
        segment_origin: Mapping[tuple, tuple] | None = None,
    ):
        self.rotation = {v: tuple(rot) for v, rot in rotation.items()}
        self.twin = dict(twin)
        self.surface = surface
        self.vertex_kind = dict(vertex_kind)
        self.owner = {}
        for v, rot in self.rotation.items():
            for d in rot:
                if d in self.owner:
                    raise EmbedError(f"dart {d} appears in two rotations")
                self.owner[d] = v
        self._faces = None
        self._validate_structure()
        if segment_origin is None:
            self.segment_origin = self._derive_origins()
        else:
            self.segment_origin = dict(segment_origin)
        self._validate_origins()

    # -- structural validation ------------------------------------------

    def _validate_structure(self):
        if self.surface not in SURFACES:
            raise EmbedError(f"unknown surface {self.surface!r}")
        darts = set(self.owner)
        if set(self.twin) != darts:
            raise EmbedError("twin map does not cover exactly the darts in rotations")
        for d, e in self.twin.items():
            if e == d:
                raise EmbedError(f"dart {d} is its own twin")
            if self.twin.get(e) != d:
                raise EmbedError(f"twin is not an involution at dart {d}")
            if self.owner[d] == self.owner[e]:
                raise EmbedError(f"loop segment at vertex {self.owner[d]}")
        if set(self.vertex_kind) != set(self.rotation):
            raise EmbedError("vertex_kind must label exactly the rotation vertices")
        for v, kind in self.vertex_kind.items():
            if kind not in (TRUE, CROSSING):
                raise EmbedError(f"bad vertex kind {kind!r} at vertex {v}")
            if kind == CROSSING:
                if len(self.rotation[v]) != 4:
                    raise EmbedError(
                        f"crossing vertex {v} has degree "
                        f"{len(self.rotation[v])}, expected 4"
                    )
                for d in self.rotation[v]:
                    w = self.owner[self.twin[d]]
                    if self.vertex_kind[w] == CROSSING:
                        raise EmbedError(f"adjacent crossing vertices {v} and {w}")

    def _derive_origins(self) -> dict:
        origins: dict = {}
        for key in self.segments():
            u, w = self.owner[key[0]], self.owner[key[1]]
            if self.vertex_kind[u] == TRUE and self.vertex_kind[w] == TRUE:
                origins[key] = (u, w) if u < w else (w, u)
        for x, kind in self.vertex_kind.items():
            if kind != CROSSING:
                continue
            rot = self.rotation[x]
            for d, opp in ((rot[0], rot[2]), (rot[1], rot[3])):
                a = self.owner[self.twin[d]]
                b = self.owner[self.twin[opp]]
                edge = (a, b) if a < b else (b, a)
                origins[seg_key(d, self.twin)] = edge
                origins[seg_key(opp, self.twin)] = edge
        return origins

    def _validate_origins(self):
        keys = set(self.segments())
        if set(self.segment_origin) != keys:
            raise EmbedError("segment_origin must cover exactly the segments")
        per_edge: dict = {}
        for key, edge in self.segment_origin.items():
            if edge is None:
                continue
            for d in key:
                v = self.owner[d]
                if self.vertex_kind[v] == TRUE and v not in edge:
                    raise EmbedError(f"segment {key} ends at {v}, off its origin {edge}")
            per_edge.setdefault(edge, []).append(key)
        for edge, segs in per_edge.items():
            if len(segs) > 2:
                raise EmbedError(f"edge {edge} crosses twice")
            if len(segs) == 2:
                for key in segs:
                    kinds = {self.vertex_kind[self.owner[d]] for d in key}
                    if CROSSING not in kinds:
                        raise EmbedError(
                            f"edge {edge} has a parallel uncrossed segment"
                        )
        for x, kind in self.vertex_kind.items():
            if kind != CROSSING:
                continue
            rot = self.rotation[x]
            o = [self.segment_origin[seg_key(d, self.twin)] for d in rot]
            if any(e is None for e in o):
                raise EmbedError(f"segment at crossing {x} lacks an origin edge")
            if o[0] != o[2] or o[1] != o[3] or o[0] == o[1]:
                raise EmbedError(
                    f"origins at crossing {x} must interleave two edges, got {o}"
                )

    # -- queries ----------------------------------------------------------

    def vertices(self) -> list:
        return sorted(self.rotation)

    def true_vertices(self) -> list:
        return [v for v in self.vertices() if self.vertex_kind[v] == TRUE]

    def crossing_vertices(self) -> list:
        return [v for v in self.vertices() if self.vertex_kind[v] == CROSSING]

    def degree(self, v) -> int:
        return len(self.rotation[v])

    def segments(self) -> list[tuple]:
        return sorted({seg_key(d, self.twin) for d in self.twin})

    def num_segments(self) -> int:
        return len(self.twin) // 2

    def other_end(self, d: int):
        return self.owner[self.twin[d]]

    def is_new(self, d: int) -> bool:
        """Whether dart d lies on a new segment (one with no origin edge)."""
        e = self.twin[d]
        return self.segment_origin[(d, e) if d < e else (e, d)] is None

    def faces(self) -> list[Face]:
        """All faces, each boundary starting at its smallest dart id."""
        if self._faces is None:
            succ = {}
            for rot in self.rotation.values():
                for i, d in enumerate(rot):
                    succ[d] = rot[(i + 1) % len(rot)]
            seen = set()
            out = []
            for d0 in sorted(succ):
                if d0 in seen:
                    continue
                walk = []
                d = d0
                while True:
                    walk.append(d)
                    seen.add(d)
                    d = succ[self.twin[d]]
                    if d == d0:
                        break
                out.append(Face(tuple(walk)))
            self._faces = out
        return self._faces

    def face_vertices(self, face: Face) -> tuple:
        return tuple(self.owner[d] for d in face.boundary)


def dart_face_index(faces: Iterable[Face]) -> dict:
    """Map each dart to the index of the face whose boundary contains it."""
    out = {}
    for i, f in enumerate(faces):
        for d in f.boundary:
            out[d] = i
    return out


def euler_characteristic(e: EmbeddedGraph) -> int:
    return len(e.rotation) - e.num_segments() + len(e.faces())


def check_two_cell(e: EmbeddedGraph) -> None:
    """Reject embeddings whose Euler characteristic contradicts the surface."""
    chi = euler_characteristic(e)
    expected = 2 if e.surface == "plane" else 0
    if chi != expected:
        raise EmbedError(
            f"not 2-cell for declared surface {e.surface}: "
            f"V-E+F = {chi}, expected {expected}"
        )


def charge_sum_identity(e: EmbeddedGraph) -> tuple:
    """(sum of deg-6 over vertices + 2*size-6 over faces, -6*chi)."""
    total = sum(e.degree(v) - 6 for v in e.rotation)
    total += sum(2 * f.size - 6 for f in e.faces())
    return total, -6 * euler_characteristic(e)


# ---------------------------------------------------------------------------
# Builders

def from_face_cycles(
    face_cycles: Sequence[Sequence[int]],
    surface: str,
    crossing_vertices: Iterable[int] = (),
    g: SimpleGraph | None = None,
) -> EmbeddedGraph:
    """Build an embedding from its oriented face cycles.

    Every directed side (u, w) must occur in exactly one face, and its
    reverse (w, u) in exactly one (possibly the same) face.  The rotation
    at each vertex is recovered from the face corners; if the corners do
    not chain into a single cycle the face set is not a valid embedding.
    """
    dart_of: dict = {}
    for cyc in face_cycles:
        if len(cyc) < 2:
            raise EmbedError(f"face cycle {cyc} too short")
        for i, u in enumerate(cyc):
            w = cyc[(i + 1) % len(cyc)]
            if u == w:
                raise EmbedError(f"face cycle {cyc} repeats vertex {u} consecutively")
            if (u, w) in dart_of:
                raise EmbedError(f"directed side ({u},{w}) used twice")
            dart_of[(u, w)] = len(dart_of)
    twin = {}
    for (u, w), d in dart_of.items():
        if (w, u) not in dart_of:
            raise EmbedError(f"side ({u},{w}) has no reverse side")
        twin[d] = dart_of[(w, u)]
    succ: dict = {}
    for cyc in face_cycles:
        k = len(cyc)
        for i in range(k):
            u, w, x = cyc[i], cyc[(i + 1) % k], cyc[(i + 2) % k]
            succ[dart_of[(w, u)]] = dart_of[(w, x)]
    at_vertex: dict = {}
    for (u, w), d in dart_of.items():
        at_vertex.setdefault(u, []).append(d)
    rotation = {}
    for v, darts in at_vertex.items():
        start = min(darts)
        cycle = [start]
        d = succ[start]
        while d != start:
            cycle.append(d)
            d = succ[d]
        if len(cycle) != len(darts):
            raise EmbedError(f"corners at vertex {v} do not close into one rotation")
        rotation[v] = tuple(cycle)
    crossing = set(crossing_vertices)
    kinds = {v: CROSSING if v in crossing else TRUE for v in rotation}
    e = EmbeddedGraph(rotation, twin, kinds, surface)
    if g is not None:
        check_against_graph(e, g)
    return e


def check_against_graph(e: EmbeddedGraph, g: SimpleGraph) -> None:
    """Verify that e is the associated graph of g (pre-augmentation)."""
    if set(e.true_vertices()) != set(g.vertices):
        raise EmbedError("true vertices differ from the graph's vertex set")
    counts: dict = {}
    for key, edge in e.segment_origin.items():
        if edge is None:
            raise EmbedError(f"segment {key} has no origin edge")
        counts[edge] = counts.get(edge, 0) + 1
    for edge in counts:
        if not g.has_edge(*edge):
            raise EmbedError(f"segment origin {edge} is not an edge of the graph")
    missing = [edge for edge in g.edges() if edge not in counts]
    if missing:
        raise EmbedError(f"graph edge {missing[0]} is not drawn")


# ---------------------------------------------------------------------------
# Text format

def parse_embedding(text: str) -> EmbeddedGraph:
    """Read the text format; the drawing must be 2-cell on its declared
    surface (see check_two_cell)."""
    surface = None
    section = None
    rotation: dict = {}
    twin: dict = {}
    crossings: set = set()
    origins: dict = {}
    have_origins = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("surface:"):
                if surface is not None:
                    raise ValueError("repeated 'surface:' line")
                surface = line.split(":", 1)[1].strip()
            elif line in ("rotation:", "twins:", "crossings:", "origins:"):
                section = line[:-1]
                if section == "origins":
                    have_origins = True
            elif section == "rotation":
                head, sep, rest = line.partition(":")
                if not sep:
                    raise ValueError("missing ':'")
                v = int(head)
                if v in rotation:
                    raise ValueError(f"repeated rotation of vertex {v}")
                rotation[v] = tuple(int(t) for t in rest.split())
            elif section == "twins":
                a, b = (int(t) for t in line.split())
                twin[a] = b
                twin[b] = a
            elif section == "crossings":
                crossings.update(int(t) for t in line.split())
            elif section == "origins":
                left, sep, right = line.partition("->")
                if not sep:
                    raise ValueError("missing '->'")
                d1, d2 = (int(t) for t in left.split())
                right = right.strip()
                key = (d1, d2) if d1 < d2 else (d2, d1)
                if key in origins:
                    raise ValueError(f"repeated origin of segment {key}")
                if right == "new":
                    origins[key] = None
                else:
                    u, v = (int(t) for t in right.split())
                    origins[key] = (u, v) if u < v else (v, u)
            else:
                raise ValueError("content outside any section")
        except ValueError as exc:
            raise EmbedError(f"line {lineno}: {exc}") from None
    if surface is None:
        raise EmbedError("missing 'surface:' line")
    if not crossings <= rotation.keys():
        raise EmbedError(f"crossing {min(crossings - rotation.keys())} names no vertex")
    kinds = {v: CROSSING if v in crossings else TRUE for v in rotation}
    e = EmbeddedGraph(rotation, twin, kinds, surface, origins if have_origins else None)
    check_two_cell(e)
    return e


def dump_embedding(e: EmbeddedGraph) -> str:
    lines = [f"surface: {e.surface}"]
    lines.append("rotation:")
    for v in e.vertices():
        lines.append(f"{v}: " + " ".join(str(d) for d in e.rotation[v]))
    cross = e.crossing_vertices()
    if cross:
        lines.append("crossings:")
        lines.append(" ".join(str(v) for v in cross))
    lines.append("twins:")
    for a, b in e.segments():
        lines.append(f"{a} {b}")
    lines.append("origins:")
    for key in e.segments():
        edge = e.segment_origin[key]
        tail = "new" if edge is None else f"{edge[0]} {edge[1]}"
        lines.append(f"{key[0]} {key[1]} -> {tail}")
    return "\n".join(lines) + "\n"

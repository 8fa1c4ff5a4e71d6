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

from collections import Counter
from itertools import accumulate, chain, compress
from operator import lt
from typing import Iterable, Mapping, Sequence

TRUE = "true"
CROSSING = "crossing"
# each surface and its Euler characteristic V - E + F
SURFACES = {"plane": 2, "torus": 0}


class EmbedError(ValueError):
    """Violation of the 1-embedding invariants or a malformed input file."""


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

    The constructor validates every field; the parser and from_face_cycles
    build through it, so every drawing read from a file or built from face
    cycles is checked whole.  Given origins, which the parser supplies,
    get the full check and are stored as ascending pairs.  Derived origins
    cover the segments, end where their segments end and interleave at
    every crossing by construction, so they are checked only for an edge
    drawn more than once, the one fault a drawing can give them.  ChordEdit
    is the one other path: it copies a drawing built here, checks each
    chord it adds locally, and hands back the result without a second full
    check.
    """

    __slots__ = (
        "rotation",
        "twin",
        "owner",
        "vertex_kind",
        "surface",
        "segment_origin",
        "_faces",
        "_new_darts",
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
                    if self.owner[d] == v:
                        raise EmbedError(f"dart {d} appears twice in the rotation of vertex {v}")
                    raise EmbedError(f"dart {d} appears in two rotations")
                self.owner[d] = v
        self._faces = None
        self._new_darts = None
        self._validate_structure()
        if segment_origin is None:
            self.segment_origin = origin = _derived_origins(
                self.rotation, self.twin, self.owner, self.vertex_kind
            )
            # derived origins cover the segments, end where their segments
            # end and give each crossing two distinct edges, two segments
            # each; only an edge drawn more than once makes them wrong, and
            # it leaves fewer distinct origins than one per segment less
            # two per crossing
            crossings = list(self.vertex_kind.values()).count(CROSSING)
            if len(set(origin.values())) != len(origin) - 2 * crossings:
                self._check_edge_counts(self._crossing_origins())
        else:
            self.segment_origin = dict(segment_origin)
            self._validate_origins()

    # -- structural validation ------------------------------------------

    def _validate_structure(self):
        if self.surface not in SURFACES:
            raise EmbedError(f"unknown surface {self.surface!r}")
        twin, owner = self.twin, self.owner
        if twin.keys() != owner.keys():
            raise EmbedError("twin map does not cover exactly the darts in rotations")
        for d, e in twin.items():
            if e == d:
                raise EmbedError(f"dart {d} is its own twin")
            if twin.get(e) != d:
                raise EmbedError(f"twin is not an involution at dart {d}")
            if owner[d] == owner[e]:
                raise EmbedError(f"loop segment at vertex {owner[d]}")
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
                ends = [owner[twin[d]] for d in self.rotation[v]]
                for w in ends:
                    if self.vertex_kind[w] == CROSSING:
                        raise EmbedError(f"adjacent crossing vertices {v} and {w}")
                # the two edges that cross here each join two vertices
                for w, far in zip(ends, ends[2:]):
                    if w == far:
                        raise EmbedError(f"crossing {v} joins vertex {w} to itself")

    def _crossing_origins(self) -> dict:
        """The origins of each crossing's segments, in rotation order."""
        origin, twin = self.segment_origin, self.twin
        return {
            x: [origin[seg_key(d, twin)] for d in self.rotation[x]]
            for x, kind in self.vertex_kind.items()
            if kind == CROSSING
        }

    def _validate_origins(self):
        """The full check of given origins, each stored ascending."""
        twin, owner, vertex_kind = self.twin, self.owner, self.vertex_kind
        origin = self.segment_origin
        cover = "segment_origin must cover exactly the segments"
        odd = []  # the segments whose origin is not the pair of their ends
        try:
            for key, edge in origin.items():
                d, e = key
                if d > e or twin.get(d) != e:
                    raise EmbedError(cover)
                u, w = owner[d], owner[e]
                if edge != ((u, w) if u < w else (w, u)):
                    odd.append(key)
        except (TypeError, ValueError):  # a key that is no pair of darts
            raise EmbedError(cover) from None
        if len(origin) != len(twin) // 2:
            raise EmbedError(cover)
        for key in odd:
            edge = origin[key]
            if edge is None:
                continue
            u, w = edge
            if u > w:
                origin[key] = edge = (w, u)
            for d in key:
                v = owner[d]
                if vertex_kind[v] == TRUE and v not in edge:
                    raise EmbedError(f"segment {key} ends at {v}, off its origin {edge}")
        at_crossings = self._crossing_origins()
        self._check_edge_counts(at_crossings)
        for x, o in at_crossings.items():
            if any(e is None for e in o):
                raise EmbedError(f"segment at crossing {x} lacks an origin edge")
            if o[0] != o[2] or o[1] != o[3] or o[0] == o[1]:
                raise EmbedError(
                    f"origins at crossing {x} must interleave two edges, got {o}"
                )

    def _check_edge_counts(self, at_crossings: dict) -> None:
        """Reject the first edge, in origin order, that more than two
        segments draw, or two of which one joins two true vertices: an
        edge is drawn in two pieces only where it crosses another, once.
        at_crossings holds the origins of each crossing's segments."""
        drawn = Counter(self.segment_origin.values())
        drawn.pop(None, None)
        if max(drawn.values(), default=0) < 2:
            return
        crossed = Counter(chain.from_iterable(at_crossings.values()))
        for edge, n in drawn.items():
            if n > 2:
                raise EmbedError(f"edge {edge} crosses twice")
            if n == 2 and crossed[edge] != 2:
                raise EmbedError(f"edge {edge} has a parallel uncrossed segment")

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
        return sorted((d, e) for d, e in self.twin.items() if d < e)

    def num_segments(self) -> int:
        return len(self.twin) // 2

    def other_end(self, d: int):
        return self.owner[self.twin[d]]

    def new_darts(self) -> frozenset:
        """The darts on new segments (those with no origin edge), found once."""
        if self._new_darts is None:
            self._new_darts = frozenset(
                d for key, edge in self.segment_origin.items() if edge is None for d in key
            )
        return self._new_darts

    def is_new(self, d: int) -> bool:
        """Whether dart d lies on a new segment (one with no origin edge)."""
        return d in self.new_darts()

    def faces(self) -> list[tuple]:
        """All faces, each the dart tuple of its boundary walk starting at
        its smallest dart id, in the order of those darts; found once."""
        if self._faces is None:
            twin = self.twin
            succ = {}
            for rot in self.rotation.values():
                succ.update(zip(rot, rot[1:] + rot[:1]))
            seen = set()
            out = []
            for d0 in sorted(succ):
                if d0 in seen:
                    continue
                walk = [d0]
                d = succ[twin[d0]]
                while d != d0:
                    walk.append(d)
                    d = succ[twin[d]]
                seen.update(walk)
                out.append(tuple(walk))
            self._faces = out
        return self._faces

    def face_census(self) -> dict:
        """The number of faces of each size, in ascending size order."""
        return dict(sorted(Counter(map(len, self.faces())).items()))

    def face_vertices(self, face: tuple) -> tuple:
        return tuple(self.owner[d] for d in face)


def _derived_origins(
    rotation: Mapping, twin: Mapping, owner: Mapping, vertex_kind: Mapping
) -> dict:
    """The origins a drawing implies (see EmbeddedGraph): each true-true
    segment in segment order, then the four segments at each crossing.  A
    crossing not of degree 4 gets none; the constructor rejects it."""
    origins: dict = {}
    for d, e in sorted(compress(twin.items(), map(lt, twin, twin.values()))):
        u, w = owner[d], owner[e]
        origins[d, e] = (u, w) if u < w else (w, u)
    crossings = [x for x, kind in vertex_kind.items() if kind == CROSSING]
    # the segments at crossings move behind the true-true ones; one that
    # joins two crossings, which the constructor rejects, leaves once
    for x in crossings:
        for d in rotation[x]:
            origins.pop(seg_key(d, twin), None)
    for x in crossings:
        rot = rotation[x]
        if len(rot) != 4:
            continue
        for d, opp in ((rot[0], rot[2]), (rot[1], rot[3])):
            a = owner[twin[d]]
            b = owner[twin[opp]]
            edge = (a, b) if a < b else (b, a)
            origins[seg_key(d, twin)] = edge
            origins[seg_key(opp, twin)] = edge
    return origins


def dart_face_index(faces: Iterable[tuple]) -> dict:
    """Map each dart to the index of the face whose dart tuple contains it."""
    out = {}
    for i, f in enumerate(faces):
        for d in f:
            out[d] = i
    return out


def euler_characteristic(e: EmbeddedGraph) -> int:
    return len(e.rotation) - e.num_segments() + len(e.faces())


def check_two_cell(e: EmbeddedGraph) -> None:
    """Reject embeddings whose Euler characteristic contradicts the surface,
    and disconnected ones: V-E+F adds up over components, so a torus drawn
    beside a sphere would pass as a plane."""
    _check_two_cell(e, len(e.faces()))


def _check_two_cell(e: EmbeddedGraph, faces: int) -> None:
    """check_two_cell, given the number of faces."""
    chi = len(e.rotation) - e.num_segments() + faces
    expected = SURFACES[e.surface]
    if chi != expected:
        raise EmbedError(
            f"not 2-cell for declared surface {e.surface}: "
            f"V-E+F = {chi}, expected {expected}"
        )
    rotation, twin, owner = e.rotation, e.twin, e.owner
    seen: set = set()
    parts = 0
    for v in rotation:
        if v in seen:
            continue
        parts += 1
        reached = {v}
        while reached:
            seen |= reached
            reached = {owner[twin[d]] for u in reached for d in rotation[u]} - seen
    if parts != 1:
        raise EmbedError(
            f"not 2-cell for declared surface {e.surface}: "
            f"the drawing has {parts} connected components, expected 1"
        )


def charge_sum_identity(e: EmbeddedGraph) -> tuple:
    """(sum of deg-6 over vertices + 2*size-6 over faces, -6*chi)."""
    total = sum(e.degree(v) - 6 for v in e.rotation)
    total += sum(2 * len(f) - 6 for f in e.faces())
    return total, -6 * euler_characteristic(e)


# ---------------------------------------------------------------------------
# Builders

def from_face_cycles(
    face_cycles: Sequence[Sequence[int]],
    surface: str,
    crossing_vertices: Iterable[int] = (),
    new_pairs: Sequence[tuple] = (),
) -> EmbeddedGraph:
    """Build an embedding from its oriented face cycles.

    Every directed side (u, w) must occur in exactly one face, and its
    reverse (w, u) in exactly one (possibly the same) face.  The rotation
    at each vertex is recovered from the face corners; if the corners do
    not chain into a single cycle the face set is not a valid embedding.
    Every crossing id must name a vertex, and the drawing must be 2-cell on
    `surface` (see check_two_cell).  Origins are derived (see
    EmbeddedGraph), so without new pairs the drawing fixes its graph
    (gen.true_graph_of).  Each new pair (u, w) names the one segment
    joining u and w, which gets no origin: a new edge of G*.  A pair with
    no segment or with several is rejected, and so is a new segment at a
    crossing, whose origin the crossing needs.
    """
    rotation, twin = _face_rotation(face_cycles)
    kinds = _vertex_kinds(rotation, set(crossing_vertices))
    origins = None
    if new_pairs:
        owner = {d: v for v, rot in rotation.items() for d in rot}
        origins = _derived_origins(rotation, twin, owner, kinds)
        for u, w in new_pairs:
            keys = [k for k in origins if {owner[k[0]], owner[k[1]]} == {u, w}]
            if len(keys) != 1:
                raise EmbedError(
                    f"new pair {u},{w}: expected exactly one segment, found {len(keys)}"
                )
            origins[keys[0]] = None
    e = EmbeddedGraph(rotation, twin, kinds, surface, origins)
    # the given cycles are exactly the faces, so V-E+F needs no face trace
    _check_two_cell(e, len(face_cycles))
    return e


def _face_rotation(face_cycles: Sequence[Sequence[int]]) -> tuple:
    """(rotation, twin) of the drawing whose oriented faces are
    `face_cycles`, numbering darts 0, 1, ... in the order of the faces'
    sides.  Each list below is indexed by dart."""
    sizes = list(map(len, face_cycles))
    if min(sizes, default=2) < 2:
        _face_cycle_error(face_cycles)
    tail = list(chain.from_iterable(face_cycles))
    n = len(tail)
    # one int object per dart, shared by every map below and the result
    darts = list(range(n))
    # the next dart along the same face; a face's darts are numbered in a
    # row, so the last one's next is the face's first
    face_next = darts[1:] + darts[:1]
    first = 0
    for end in accumulate(sizes):
        face_next[end - 1] = darts[first]
        first = end
    head = list(map(tail.__getitem__, face_next))
    dart_of = dict(zip(zip(tail, head), darts))
    # one reverse lookup per side; a side (v, v) finds itself
    reverse = list(map(dart_of.get, zip(head, tail)))
    if len(dart_of) != n or None in reverse or any(map(int.__eq__, reverse, darts)):
        _face_cycle_error(face_cycles)
    del dart_of, head
    twin = dict(zip(darts, reverse))
    # the rotation successor of a dart leaving v is the dart that follows
    # its twin around the face on the twin's left: it leaves v too
    succ = list(map(face_next.__getitem__, reverse))
    del reverse, face_next
    # each vertex's least dart, in ascending order: walking the darts
    # backwards, the last one written under a vertex is its least
    starts = sorted(dict(zip(reversed(tail), reversed(darts))).values())
    rotation: dict = {}
    for start in starts:
        cycle = [start]
        d = succ[start]
        while d != start:
            cycle.append(d)
            d = succ[d]
        rotation[tail[start]] = tuple(cycle)
    if sum(map(len, rotation.values())) != n:
        degree = Counter(tail)
        for v, cycle in rotation.items():
            if len(cycle) != degree[v]:
                raise EmbedError(f"corners at vertex {v} do not close into one rotation")
    return rotation, twin


def _face_cycle_error(face_cycles: Sequence[Sequence[int]]) -> None:
    """Raise for the first face cycle, in order, that is too short, repeats
    a vertex consecutively or repeats a directed side, or else for the
    first side with no reverse side."""
    sides: dict = {}  # a dict, to keep the sides in order
    for cyc in face_cycles:
        if len(cyc) < 2:
            raise EmbedError(f"face cycle {cyc} too short")
        for side in zip(cyc, cyc[1:] + cyc[:1]):
            if side[0] == side[1]:
                raise EmbedError(f"face cycle {cyc} repeats vertex {side[0]} consecutively")
            if side in sides:
                raise EmbedError(f"directed side ({side[0]},{side[1]}) used twice")
            sides[side] = None
    for u, w in sides:
        if (w, u) not in sides:
            raise EmbedError(f"side ({u},{w}) has no reverse side")
    raise AssertionError("every side is sound")


def _vertex_kinds(rotation: Mapping, crossings: set) -> dict:
    """Label each rotation vertex, rejecting a crossing id with no vertex."""
    if not crossings <= rotation.keys():
        raise EmbedError(f"crossing {min(crossings - rotation.keys())} names no vertex")
    return {v: CROSSING if v in crossings else TRUE for v in rotation}


# ---------------------------------------------------------------------------
# Chord edits

class ChordEdit:
    """New edges drawn as chords across the faces of a validated drawing.

    `split(face, i, j)` joins the owners of face[i] and face[j] by a new
    segment (origin None) across the face, which becomes two faces, and
    returns them.  The chord's darts are numbered past every dart so far
    and enter the rotations of its ends just before face[i] and face[j].
    Each split checks only what it changes: the face is a face of the
    edit, i < j are corners of it that are not consecutive either way,
    and the ends are two distinct true vertices.  So no crossing's
    rotation or origins change, and one segment and one face are added
    to a connected drawing: every invariant the constructor checks, V-E+F
    and connectivity carry over from the base.  `finish()` therefore
    returns the edited drawing without validating it again, its face
    cache filled from the faces of the edit.
    """

    def __init__(self, base: EmbeddedGraph):
        self._base = base
        self._rotation = dict(base.rotation)
        self._lists: dict = {}  # the rotation, as a list, of each chord end
        self._twin = dict(base.twin)
        self.owner = dict(base.owner)
        self._origin = dict(base.segment_origin)
        self._first_new = self._next = max(self._twin, default=-1) + 1
        # each face under its first dart: a base face starts at its
        # smallest, a piece at the dart of the chord that made it
        self._faces = {f[0]: f for f in base.faces()}

    def split(self, face: tuple, i: int, j: int) -> tuple:
        faces, owner = self._faces, self.owner
        if not face or faces.get(face[0]) != face:
            raise EmbedError(f"{face} is not a face of the edit (never one, or split already)")
        k = len(face)
        if not 0 <= i < j < k:
            raise EmbedError(f"corners {i}, {j} are not in order on a face of size {k}")
        if j - i < 2 or k - (j - i) < 2:
            raise EmbedError(f"corners {i}, {j} are consecutive on a face of size {k}")
        u, v = owner[face[i]], owner[face[j]]
        kinds = self._base.vertex_kind
        for w in (u, v):
            if kinds[w] != TRUE:
                raise EmbedError(f"chord end {w} is a crossing vertex")
        if u == v:
            raise EmbedError(f"chord joins vertex {u} to itself")
        a = self._next
        b = a + 1
        self._next = a + 2
        for w, at, d in ((u, face[i], a), (v, face[j], b)):
            rot = self._lists.get(w)
            if rot is None:
                rot = self._lists[w] = list(self._rotation[w])
            rot.insert(rot.index(at), d)
        self._twin[a] = b
        self._twin[b] = a
        owner[a] = u
        owner[b] = v
        self._origin[a, b] = None
        del faces[face[0]]
        p, q = (a,) + face[j:] + face[:i], (b,) + face[i:j]
        faces[a] = p
        faces[b] = q
        return p, q

    def finish(self) -> EmbeddedGraph:
        """The edited drawing, its faces cached in faces()'s form and
        order; the edit ends here."""
        if not self._faces:
            raise EmbedError("the edit is finished already")
        base = self._base
        rotation = self._rotation
        for w, rot in self._lists.items():
            rotation[w] = tuple(rot)
        faces = {}
        for d, f in self._faces.items():
            if d >= self._first_new:
                # a piece starts at its chord's dart; turn it to its smallest
                d = min(f)
                k = f.index(d)
                f = f[k:] + f[:k]
            faces[d] = f
        self._faces = {}
        e = EmbeddedGraph.__new__(EmbeddedGraph)
        e.rotation = rotation
        e.twin = self._twin
        e.owner = self.owner
        e.vertex_kind = dict(base.vertex_kind)
        e.surface = base.surface
        e.segment_origin = self._origin
        e._faces = [faces[d] for d in sorted(faces)]
        e._new_darts = None
        return e


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
    data = False  # whether section is "twins" or "origins"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            # the twins and origins data lines, the bulk of a file, go
            # straight to their section; a line with a ':' in it may be a
            # header or a surface line, so it takes the tests below first
            if not data or ":" in line:
                if line.startswith("surface:"):
                    if surface is not None:
                        raise ValueError("repeated 'surface:' line")
                    surface = line.split(":", 1)[1].strip()
                    continue
                if line in ("rotation:", "twins:", "crossings:", "origins:"):
                    section = line[:-1]
                    data = section in ("twins", "origins")
                    if section == "origins":
                        have_origins = True
                    continue
                if section == "rotation":
                    head, sep, rest = line.partition(":")
                    if not sep:
                        raise ValueError("missing ':'")
                    v = int(head)
                    if v in rotation:
                        raise ValueError(f"repeated rotation of vertex {v}")
                    rotation[v] = tuple(map(int, rest.split()))
                    continue
                if section == "crossings":
                    crossings.update(map(int, line.split()))
                    continue
                if section is None:
                    raise ValueError("content outside any section")
            # a twins or origins data line; a stray ':' fails as an int
            if section == "twins":
                a, b = map(int, line.split())
                if a in twin or b in twin:
                    raise ValueError(f"repeated twin of dart {a if a in twin else b}")
                twin[a] = b
                twin[b] = a
            else:
                left, sep, right = line.partition("->")
                if not sep:
                    raise ValueError("missing '->'")
                d1, d2 = map(int, left.split())
                right = right.strip()
                key = (d1, d2) if d1 < d2 else (d2, d1)
                if key in origins:
                    raise ValueError(f"repeated origin of segment {key}")
                if right == "new":
                    origins[key] = None
                else:
                    u, v = map(int, right.split())
                    origins[key] = (u, v) if u < v else (v, u)
        except ValueError as exc:
            raise EmbedError(f"line {lineno}: {exc}") from None
    if surface is None:
        raise EmbedError("missing 'surface:' line")
    kinds = _vertex_kinds(rotation, crossings)
    e = EmbeddedGraph(rotation, twin, kinds, surface, origins if have_origins else None)
    check_two_cell(e)
    return e


def dump_embedding(e: EmbeddedGraph) -> str:
    rotation = e.rotation
    lines = [f"surface: {e.surface}", "rotation:"]
    lines.extend(f"{v}: " + " ".join(map(str, rotation[v])) for v in e.vertices())
    cross = e.crossing_vertices()
    if cross:
        lines.append("crossings:")
        lines.append(" ".join(map(str, cross)))
    # each segment and its origin in one read, in segment order
    items = sorted(e.segment_origin.items())
    texts = [f"{a} {b}" for (a, b), _ in items]
    lines.append("twins:")
    lines.extend(texts)
    lines.append("origins:")
    lines.extend(
        f"{text} -> new" if edge is None else f"{text} -> {edge[0]} {edge[1]}"
        for text, (_, edge) in zip(texts, items)
    )
    return "\n".join(lines) + "\n"

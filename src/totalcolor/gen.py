"""Deterministic instance generators: toroidal grids, stacked planar
triangulations, crossing-pair perturbations, and high-degree triangle-free
corpora, plus a manifest writer for generated files.

Randomness comes from a fixed 64-bit linear congruential generator rather
than the platform RNG so that corpora reproduce bit-for-bit anywhere (see
Lcg64).
"""
from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import isqrt

from .embedding import EmbeddedGraph, dump_embedding, from_face_cycles
from .graphs import SimpleGraph, dump_edge_list, edge_key, graph_of_edge_set


class GenError(ValueError):
    """Infeasible generator request.  When a generator ran partially, the
    `achieved` attribute carries how far it got."""

    def __init__(self, message: str, achieved: int | None = None):
        super().__init__(message)
        self.achieved = achieved


class Lcg64:
    """64-bit linear congruential generator: state' = a*state + c mod 2**64
    with Knuth's MMIX constants a = 6364136223846793005 and
    c = 1442695040888963407.  Every draw advances the state once and uses
    the top 32 bits; an index draw is (state >> 32) % n."""

    MASK = (1 << 64) - 1
    A = 6364136223846793005
    C = 1442695040888963407

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_word(self) -> int:
        self.state = (self.state * self.A + self.C) & self.MASK
        return self.state >> 32

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise GenError(f"randrange needs a positive bound, got {n}")
        return self.next_word() % n


# ---------------------------------------------------------------------------
# toroidal grids


def gen_toroidal_grid(m: int, n: int) -> tuple:
    """The m-by-n quadrangulation of the torus (product of two cycles),
    4-regular with m*n vertices and faces."""
    if m < 3 or n < 3:
        raise GenError(f"toroidal grid needs both sides >= 3, got {m}x{n}")

    def v(i, j):
        return (i % m) * n + (j % n)

    faces = [
        (v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1))
        for i in range(m)
        for j in range(n)
    ]
    e = from_face_cycles(faces, "torus")
    return true_graph_of(e), e


# ---------------------------------------------------------------------------
# stacked planar triangulations


def gen_planar_triangulation(size: int, seed: int = 0) -> tuple:
    """A stacked triangulation: start from a triangle and repeatedly drop a
    new vertex into a face chosen by the seeded generator, joining it to
    the three corners.  All faces stay triangles."""
    if size < 3:
        raise GenError(f"triangulation needs at least 3 vertices, got {size}")
    rng = Lcg64(seed)
    faces = [(0, 1, 2), (2, 1, 0)]
    for x in range(3, size):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces.extend([(a, b, x), (b, c, x), (c, a, x)])
    e = from_face_cycles(faces, "plane")
    return true_graph_of(e), e


# ---------------------------------------------------------------------------
# crossing-pair insertion


def true_graph_of(e: EmbeddedGraph) -> SimpleGraph:
    """Recover the abstract graph a drawing depicts: one edge per distinct
    segment origin.  Rejects drawings that still carry new (origin-less)
    segments, which have no single underlying graph.  The constructor
    stores each origin as an ascending pair of true vertices, so the
    distinct origins are distinct edges."""
    edges = set(e.segment_origin.values())
    if None in edges:
        raise GenError("base drawing carries unresolved new segments")
    return graph_of_edge_set(edges, e.true_vertices())


def _chord_candidates(face: tuple, edges: set, crossings: set) -> list:
    """Position quadruples i<j<k<l whose interleaved chords (i,k) and
    (j,l) are both fresh edges between distinct true vertices."""
    usable = [
        i for i, v in enumerate(face) if v not in crossings and face.count(v) == 1
    ]
    return [
        (i, j, k, l)
        for i, j, k, l in combinations(usable, 4)
        if edge_key(face[i], face[k]) not in edges
        and edge_key(face[j], face[l]) not in edges
    ]


class _FaceBlocks:
    """A face list kept in order as blocks of at most 2*size faces, each
    with its count of eligible faces (four or more corners).  Finding the
    k-th eligible face in list order and replacing a face by its children
    in place each cost O(F/size + size) for F faces.  Faces skipped for
    the current draw leave the count until `unskip`."""

    def __init__(self, faces: list, size: int):
        self.size = size
        self.blocks = [faces[i : i + size] for i in range(0, len(faces), size)]
        self.counts = [sum(len(f) >= 4 for f in b) for b in self.blocks]
        self.eligible = sum(self.counts)
        self.skipped = []

    def find(self, k: int) -> tuple:
        """(block, position) of the k-th eligible face not skipped."""
        ends = list(accumulate(self.counts))
        b = bisect_right(ends, k)
        if b:
            k -= ends[b - 1]
        skip = {i for sb, i in self.skipped if sb == b}
        for i, f in enumerate(self.blocks[b]):
            if len(f) >= 4 and i not in skip:
                if not k:
                    return b, i
                k -= 1
        raise AssertionError("face block counts out of step")

    def skip(self, b: int, i: int) -> None:
        self.skipped.append((b, i))
        self.counts[b] -= 1
        self.eligible -= 1

    def unskip(self) -> None:
        for b, _ in self.skipped:
            self.counts[b] += 1
        self.eligible += len(self.skipped)
        self.skipped = []

    def replace(self, b: int, i: int, children: list) -> None:
        block = self.blocks[b]
        gain = sum(len(f) >= 4 for f in children) - (len(block[i]) >= 4)
        block[i : i + 1] = children
        self.counts[b] += gain
        self.eligible += gain
        if len(block) > 2 * self.size:
            head, tail = block[: self.size], block[self.size :]
            first = sum(len(f) >= 4 for f in head)
            self.blocks[b : b + 1] = [head, tail]
            self.counts[b : b + 1] = [first, self.counts[b] - first]

    def faces(self) -> list:
        return [f for block in self.blocks for f in block]


def gen_crossed(base: EmbeddedGraph, pairs: int, seed: int = 0) -> EmbeddedGraph:
    """Insert `pairs` mutually crossing chord pairs, each drawn inside one
    face of size at least 4, so every new edge crosses exactly one other.
    Raises (with the achieved count) when the drawing runs out of room.

    Each pair draws a face uniformly among the faces with four or more
    corners, in face-list order, then a chord quadruple in it.  A face with
    no quadruple is dropped and the draw repeated, for that pair only: it
    stays counted in later pairs.  The faces sit in blocks of about sqrt(F)
    (_FaceBlocks), so a pair costs O(sqrt F) besides its chord search,
    where F is the final face count."""
    if pairs < 0:
        raise GenError(f"crossing pair count must be >= 0, got {pairs}")
    if pairs == 0:
        return base
    edges = set(base.segment_origin.values())
    if None in edges:
        raise GenError("base drawing carries unresolved new segments")
    crossings = set(base.crossing_vertices())
    owner = base.owner
    faces = [tuple([owner[d] for d in f]) for f in base.faces()]
    # a pair splits a k-face into four faces of k + 8 corners in all, so
    # the room, the sum of k - 3 over faces, falls by one per pair and
    # bounds how many pairs fit
    room = sum(len(f) - 3 for f in faces if len(f) > 3)
    index = _FaceBlocks(faces, isqrt(len(faces) + 3 * min(pairs, room)) + 1)
    next_id = max(base.vertices()) + 1
    rng = Lcg64(seed)
    for achieved in range(pairs):
        while index.eligible:
            b, fi = index.find(rng.randrange(index.eligible))
            face = index.blocks[b][fi]
            cands = _chord_candidates(face, edges, crossings)
            if cands:
                break
            index.skip(b, fi)
        else:
            raise GenError(
                f"no face can host another crossing pair; placed {achieved} of {pairs}",
                achieved=achieved,
            )
        index.unskip()
        i, j, k, l = cands[rng.randrange(len(cands))]
        x = next_id + achieved
        crossings.add(x)
        edges.update((edge_key(face[i], face[k]), edge_key(face[j], face[l])))
        index.replace(
            b,
            fi,
            [
                (x, *face[i : j + 1]),
                (x, *face[j : k + 1]),
                (x, *face[k : l + 1]),
                (x, *face[l:], *face[: i + 1]),
            ],
        )
    return from_face_cycles(index.faces(), base.surface, crossing_vertices=crossings)


# ---------------------------------------------------------------------------
# high-degree triangle-free instances


def _radial_quad_drawing(delta: int, size: int) -> list:
    """Face cycles of a hub of degree delta inside nested rings of
    quadrilaterals; bipartite by construction, so triangle-free, and
    planar by construction.  The drawing fixes the edges."""
    rings = max(1, (size - 1) // delta)
    if rings == 1:
        if size != delta + 1:
            raise GenError(
                f"sizes {delta + 2}..{2 * delta} fall between the bare star "
                f"and two full rings; got {size} for delta {delta}"
            )
        # bare star: the minimal member of the family
        return [tuple(v for i in range(delta) for v in (0, 1 + i))]

    def ring(k):
        # the hub stands in for the ring inside ring 1
        if k == 0:
            return [0] * delta
        return list(range(1 + (k - 1) * delta, 1 + k * delta))

    faces = []
    for k in range(2, rings + 1):
        prev, inner, outer = ring(k - 2), ring(k - 1), ring(k)
        for i in range(delta):
            j = (i + 1) % delta
            faces.append((prev[j], inner[i], outer[i], inner[j]))
    # outer boundary, oriented against the quad faces: rim and last ring
    # alternate going clockwise
    rim, last = ring(rings - 1), ring(rings)
    boundary = [rim[0]]
    for i in reversed(range(1, delta)):
        boundary.extend([last[i], rim[i]])
    boundary.append(last[0])
    faces.append(tuple(boundary))
    return faces


def gen_high_degree_P(delta: int, size: int, seed: int = 0) -> SimpleGraph:
    """A triangle-free graph with maximum degree exactly delta (>= 11) on
    `size` vertices, with a planar quadrangulation drawing.  Triangle-free
    means no adjacent triangles, so the diamond-and-clique property the
    discharging argument assumes holds vacuously."""
    return gen_high_degree_P_drawing(delta, size, seed)[0]


def gen_high_degree_P_drawing(delta: int, size: int, seed: int = 0) -> tuple:
    """Same as gen_high_degree_P but also returns the plane drawing."""
    if delta < 11:
        raise GenError(f"the high-degree family starts at delta 11, got {delta}")
    if size < delta + 1:
        raise GenError(f"cannot reach degree {delta} on {size} vertices")
    faces = _radial_quad_drawing(delta, size)
    # each face corner is one dart, so corners count degrees
    degree = Counter(v for f in faces for v in f)
    rng = Lcg64(seed)
    # pad to the exact size by splitting quad faces across a diagonal;
    # a degree-2 vertex on a diagonal keeps the graph bipartite
    next_id = len(degree)
    guard = 0
    while next_id < size:
        quads = [i for i, f in enumerate(faces) if len(f) == 4]
        if not quads:
            raise GenError(
                f"no quad face left to pad with; reached {next_id} of {size} vertices",
                achieved=next_id,
            )
        fi = quads[rng.randrange(len(quads))]
        a, b, c, d = faces[fi]
        u, w = (a, c) if rng.randrange(2) == 0 else (b, d)
        if degree[u] >= delta or degree[w] >= delta:
            guard += 1
            if guard > 50 * size:
                raise GenError("padding stalled against the degree cap", achieved=next_id)
            continue
        x = next_id
        next_id += 1
        degree.update((u, w, x, x))
        if u == a:
            faces[fi : fi + 1] = [(a, b, c, x), (c, d, a, x)]
        else:
            faces[fi : fi + 1] = [(b, c, d, x), (d, a, b, x)]
    e = from_face_cycles(faces, "plane")
    return true_graph_of(e), e


# ---------------------------------------------------------------------------
# named corpora


@dataclass(frozen=True)
class GenSpec:
    """A reproducible instance description: the same spec always generates
    the same instance."""

    family: str
    parameters: tuple
    seed: int = 0

    def slug(self) -> str:
        params = "x".join(str(p) for p in self.parameters)
        return f"{self.family}-{params}-s{self.seed}"


# each drawn family's parameter names
FAMILIES = {
    "grid": ("m", "n"),
    "planar_triangulation": ("size",),
    "crossed_grid": ("m", "n", "pairs"),
    "wheel_sum": ("delta", "size"),
}


def generate(spec: GenSpec) -> tuple:
    """(graph, drawing) for a spec of one of FAMILIES."""
    fam, p = spec.family, spec.parameters
    if fam not in FAMILIES:
        raise GenError(f"unknown generator family {fam!r}")
    names = FAMILIES[fam]
    if len(p) != len(names):
        raise GenError(
            f"family {fam} takes {len(names)} parameter(s) ({', '.join(names)}), got {len(p)}"
        )
    if fam == "grid":
        return gen_toroidal_grid(*p)
    if fam == "planar_triangulation":
        return gen_planar_triangulation(p[0], spec.seed)
    if fam == "crossed_grid":
        m, n, pairs = p
        crossed = gen_crossed(gen_toroidal_grid(m, n)[1], pairs, spec.seed)
        return true_graph_of(crossed), crossed
    return gen_high_degree_P_drawing(p[0], p[1], spec.seed)  # wheel_sum


def write_corpus(specs, out_dir: str) -> dict:
    """Generate every spec into out_dir (edge list plus drawing) and write
    a manifest.json mapping specs to files and sha256 checksums.  Returns
    the manifest."""
    drawings = [(spec, *generate(spec)) for spec in specs]
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for spec, g, emb in drawings:
        base = spec.slug()
        files = {}
        checksums = {}
        for key, name, payload in (
            ("graph", base + ".el", dump_edge_list(g)),
            ("drawing", base + ".emb", dump_embedding(emb)),
        ):
            with open(os.path.join(out_dir, name), "w") as fh:
                fh.write(payload)
            files[key] = name
            checksums[name] = hashlib.sha256(payload.encode()).hexdigest()
        entries.append(
            {
                "name": base,
                "family": spec.family,
                "parameters": list(spec.parameters),
                "seed": spec.seed,
                "files": files,
                "sha256": checksums,
            }
        )
    manifest = {"entries": entries}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest

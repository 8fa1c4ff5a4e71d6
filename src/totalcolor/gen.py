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
from dataclasses import dataclass

from .embedding import EmbeddedGraph, dump_embedding, from_face_cycles
from .graphs import SimpleGraph, add_edge, build_graph, dump_edge_list


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

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


# ---------------------------------------------------------------------------
# toroidal grids


def gen_toroidal_grid(m: int, n: int) -> tuple:
    """The m-by-n quadrangulation of the torus (product of two cycles),
    4-regular with m*n vertices and faces."""
    if m < 3 or n < 3:
        raise GenError(f"toroidal grid needs both sides >= 3, got {m}x{n}")

    def v(i, j):
        return (i % m) * n + (j % n)

    edges = sorted(
        {tuple(sorted((v(i, j), v(i + 1, j)))) for i in range(m) for j in range(n)}
        | {tuple(sorted((v(i, j), v(i, j + 1)))) for i in range(m) for j in range(n)}
    )
    g = build_graph(edges)
    faces = [
        (v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1))
        for i in range(m)
        for j in range(n)
    ]
    return g, from_face_cycles(faces, "torus", g=g)


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
    edges = {(0, 1), (0, 2), (1, 2)}
    for x in range(3, size):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces.extend([(a, b, x), (b, c, x), (c, a, x)])
        edges.update({(a, x), (b, x), (c, x)})
    g = build_graph(sorted(edges))
    return g, from_face_cycles(faces, "plane", g=g)


# ---------------------------------------------------------------------------
# crossing-pair insertion


def true_graph_of(e: EmbeddedGraph) -> SimpleGraph:
    """Recover the abstract graph a drawing depicts: one edge per distinct
    segment origin.  Rejects drawings that still carry new (origin-less)
    segments, which have no single underlying graph."""
    edges = set()
    for origin in e.segment_origin.values():
        if origin is None:
            raise GenError("base drawing carries unresolved new segments")
        edges.add(origin)
    return build_graph(sorted(edges), vertices=e.true_vertices())


def _chord_candidates(face: tuple, g: SimpleGraph, crossings: set) -> list:
    """Position quadruples i<j<k<l whose interleaved chords (i,k) and
    (j,l) are both fresh edges between distinct true vertices."""
    k = len(face)
    usable = [
        i
        for i in range(k)
        if face[i] not in crossings and face.count(face[i]) == 1
    ]
    out = []
    for ai in range(len(usable)):
        for bi in range(ai + 1, len(usable)):
            for ci in range(bi + 1, len(usable)):
                for di in range(ci + 1, len(usable)):
                    i, j, kk, l = usable[ai], usable[bi], usable[ci], usable[di]
                    c1 = (face[i], face[kk])
                    c2 = (face[j], face[l])
                    if g.has_edge(*c1) or g.has_edge(*c2):
                        continue
                    out.append((i, j, kk, l))
    return out


def gen_crossed(base: EmbeddedGraph, pairs: int, seed: int = 0) -> EmbeddedGraph:
    """Insert `pairs` mutually crossing chord pairs, each drawn inside one
    face of size at least 4, so every new edge crosses exactly one other.
    Raises (with the achieved count) when the drawing runs out of room."""
    if pairs == 0:
        return base
    g = true_graph_of(base)
    crossings = set(base.crossing_vertices())
    faces = [tuple(base.face_vertices(f)) for f in base.faces()]
    next_id = max(base.vertices()) + 1
    rng = Lcg64(seed)
    achieved = 0
    while achieved < pairs:
        eligible = [i for i, f in enumerate(faces) if len(f) >= 4]
        placed = False
        while eligible:
            fi = eligible[rng.randrange(len(eligible))]
            face = faces[fi]
            cands = _chord_candidates(face, g, crossings)
            if not cands:
                eligible.remove(fi)
                continue
            i, j, kk, l = cands[rng.randrange(len(cands))]
            x = next_id
            next_id += 1
            crossings.add(x)
            g = add_edge(g, (face[i], face[kk]))
            g = add_edge(g, (face[j], face[l]))

            def arc(p, q):
                out = [x]
                t = p
                while True:
                    out.append(face[t])
                    if t == q:
                        return tuple(out)
                    t = (t + 1) % len(face)

            faces[fi : fi + 1] = [arc(i, j), arc(j, kk), arc(kk, l), arc(l, i)]
            achieved += 1
            placed = True
            break
        if not placed:
            raise GenError(
                f"no face can host another crossing pair; placed {achieved} of {pairs}",
                achieved=achieved,
            )
    return from_face_cycles(faces, base.surface, crossing_vertices=crossings, g=g)


# ---------------------------------------------------------------------------
# high-degree triangle-free instances


def _radial_quad_drawing(delta: int, size: int):
    """Hub of degree delta inside nested rings of quadrilaterals; bipartite
    by construction, so triangle-free, and planar by construction."""
    rings = max(1, (size - 1) // delta)
    if rings == 1:
        if size != delta + 1:
            raise GenError(
                f"sizes {delta + 2}..{2 * delta} fall between the bare star "
                f"and two full rings; got {size} for delta {delta}"
            )
        # bare star: the minimal member of the family
        cyc = []
        for i in range(delta):
            cyc.extend([0, 1 + i])
        g = build_graph([(0, 1 + i) for i in range(delta)])
        degree = {0: delta, **{1 + i: 1 for i in range(delta)}}
        return g, [tuple(cyc)], degree

    def ring(k):
        return list(range(1 + (k - 1) * delta, 1 + k * delta))

    edges = [(0, a) for a in ring(1)]
    degree = {0: delta}
    for a in ring(1):
        degree[a] = 1
    faces = []
    for k in range(2, rings + 1):
        inner, outer = ring(k - 1), ring(k)
        for i in range(delta):
            edges.append((inner[i], outer[i]))
            edges.append((outer[i], inner[(i + 1) % delta]))
            degree[outer[i]] = 2
            degree[inner[i]] += 1
            degree[inner[(i + 1) % delta]] += 1
        if k == 2:
            for i in range(delta):
                faces.append((0, inner[i], outer[i], inner[(i + 1) % delta]))
        else:
            prev = ring(k - 2)
            for i in range(delta):
                faces.append(
                    (prev[(i + 1) % delta], inner[i], outer[i], inner[(i + 1) % delta])
                )
    # outer boundary, oriented against the quad faces: rim and last ring
    # alternate going clockwise
    rim, last = ring(rings - 1), ring(rings)
    boundary = [rim[0]]
    for i in reversed(range(1, delta)):
        boundary.extend([last[i], rim[i]])
    boundary.append(last[0])
    faces.append(tuple(boundary))
    g = build_graph(sorted(edges))
    return g, faces, degree


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
    g, faces, degree = _radial_quad_drawing(delta, size)
    rng = Lcg64(seed)
    # pad to the exact size by splitting quad faces across a diagonal;
    # a degree-2 vertex on a diagonal keeps the graph bipartite
    next_id = len(g.vertices)
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
        if degree.get(u, 0) >= delta or degree.get(w, 0) >= delta:
            guard += 1
            if guard > 50 * size:
                raise GenError("padding stalled against the degree cap", achieved=next_id)
            continue
        x = next_id
        next_id += 1
        g = add_edge(add_edge(g, (u, x)), (w, x))
        degree[x] = 2
        degree[u] = degree.get(u, 0) + 1
        degree[w] = degree.get(w, 0) + 1
        if u in (a, c):
            faces[fi : fi + 1] = [(a, b, c, x), (c, d, a, x)]
        else:
            faces[fi : fi + 1] = [(b, c, d, x), (d, a, b, x)]
    emb = from_face_cycles(faces, "plane", g=g)
    return g, emb


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
        if all(isinstance(p, int) for p in self.parameters):
            params = "x".join(str(p) for p in self.parameters)
        else:
            params = hashlib.sha256(repr(self.parameters).encode()).hexdigest()[:10]
        return f"{self.family}-{params}-s{self.seed}"


def generate(spec: GenSpec) -> tuple:
    """(graph, drawing or None) for a spec.  Families: grid(m, n),
    planar_triangulation(size), crossed_grid(m, n, pairs),
    wheel_sum(delta, size), custom(edge pairs...)."""
    fam, p = spec.family, spec.parameters
    if fam == "grid":
        return gen_toroidal_grid(*p)
    if fam == "planar_triangulation":
        return gen_planar_triangulation(p[0], spec.seed)
    if fam == "crossed_grid":
        m, n, pairs = p
        g, e = gen_toroidal_grid(m, n)
        crossed = gen_crossed(e, pairs, spec.seed)
        return true_graph_of(crossed), crossed
    if fam == "wheel_sum":
        return gen_high_degree_P_drawing(p[0], p[1], spec.seed)
    if fam == "custom":
        return build_graph(list(p)), None
    raise GenError(f"unknown generator family {fam!r}")


def write_corpus(specs, out_dir: str) -> dict:
    """Generate every spec into out_dir (edge list plus drawing when there
    is one) and write a manifest.json mapping specs to files and sha256
    checksums.  Returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for spec in specs:
        g, emb = generate(spec)
        files = {}
        checksums = {}
        base = spec.slug()
        graph_path = os.path.join(out_dir, base + ".el")
        payload = dump_edge_list(g)
        with open(graph_path, "w") as fh:
            fh.write(payload)
        files["graph"] = base + ".el"
        checksums[base + ".el"] = hashlib.sha256(payload.encode()).hexdigest()
        if emb is not None:
            emb_path = os.path.join(out_dir, base + ".emb")
            payload = dump_embedding(emb)
            with open(emb_path, "w") as fh:
                fh.write(payload)
            files["drawing"] = base + ".emb"
            checksums[base + ".emb"] = hashlib.sha256(payload.encode()).hexdigest()
        entries.append(
            {
                "name": base,
                "family": spec.family,
                "parameters": [
                    list(p) if isinstance(p, tuple) else p for p in spec.parameters
                ],
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

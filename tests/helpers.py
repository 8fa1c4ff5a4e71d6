"""Shared brute-force oracles for the test suite.

These are intentionally naive (quartic scans, exhaustive enumerations) and
serve as independent references for the production implementations.
"""
from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

from totalcolor.embedding import EmbeddedGraph, from_face_cycles
from totalcolor.gen import (
    gen_crossed,
    gen_high_degree_P_drawing,
    gen_planar_triangulation,
    gen_toroidal_grid,
    true_graph_of,
)
from totalcolor.graphs import SimpleGraph, build_graph


def brute_k4s(g: SimpleGraph) -> list[tuple]:
    return sorted(
        quad
        for quad in combinations(g.vertices, 4)
        if all(g.has_edge(a, b) for a, b in combinations(quad, 2))
    )


def brute_diamonds(g: SimpleGraph) -> list[tuple]:
    """Each induced diamond as (hub_pair, wing_pair), both sorted."""
    out = []
    for quad in combinations(g.vertices, 4):
        missing = [p for p in combinations(quad, 2) if not g.has_edge(*p)]
        if len(missing) != 1:
            continue
        (wings,) = missing
        hubs = tuple(sorted(set(quad) - set(wings)))
        out.append((hubs, tuple(sorted(wings))))
    return sorted(out)


def random_graph(n: int, p: float, seed: int) -> SimpleGraph:
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return build_graph(edges, vertices=range(n))


@st.composite
def graphs_on_range(draw, max_n: int = 9) -> SimpleGraph:
    """Hypothesis strategy: a graph on the vertices 0..n-1, n <= max_n,
    with any subset of the possible edges."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph([e for e, k in zip(pairs, keep) if k], vertices=range(n))


def cycle_graph(n: int) -> SimpleGraph:
    return build_graph([(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> SimpleGraph:
    return build_graph(list(combinations(range(n), 2)))


def path_graph(n: int) -> SimpleGraph:
    return build_graph([(i, i + 1) for i in range(n - 1)], vertices=range(n))


# -- embedded test instances -------------------------------------------------

def embed(faces, surface, g, crossings=()):
    """The drawing with these face cycles, checked to depict exactly g."""
    e = from_face_cycles(faces, surface, crossing_vertices=crossings)
    assert true_graph_of(e) == g
    return e


def c6_plane():
    g = cycle_graph(6)
    e = embed([(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)], "plane", g)
    return e, g


def torus_grid(m: int, n: int):
    """Cm x Cn quadrangulation of the torus (m, n >= 3)."""

    def v(i, j):
        return (i % m) * n + (j % n)

    g = build_graph(
        sorted(
            {tuple(sorted((v(i, j), v(i + 1, j)))) for i in range(m) for j in range(n)}
            | {tuple(sorted((v(i, j), v(i, j + 1)))) for i in range(m) for j in range(n)}
        )
    )
    faces = [
        (v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1))
        for i in range(m)
        for j in range(n)
    ]
    return embed(faces, "torus", g), g


# the 3x3 torus grid (V-E+F = 0) beside a triangle on the sphere (2): the
# sum is 2, as for one connected plane drawing
GRID_BESIDE_A_SPHERE = [
    (0, 3, 4, 1), (1, 4, 5, 2), (2, 5, 3, 0),
    (3, 6, 7, 4), (4, 7, 8, 5), (5, 8, 6, 3),
    (6, 0, 1, 7), (7, 1, 2, 8), (8, 2, 0, 6),
    (100, 101, 102), (102, 101, 100),
]


def grid_beside_a_sphere() -> EmbeddedGraph:
    """GRID_BESIDE_A_SPHERE as one rotation system declared "plane", built
    with the constructor, which checks no Euler characteristic."""
    grid = from_face_cycles(GRID_BESIDE_A_SPHERE[:9], "torus")
    sphere = from_face_cycles(GRID_BESIDE_A_SPHERE[9:], "plane")
    off = len(grid.twin)
    rotation = dict(grid.rotation)
    rotation.update((v, tuple(d + off for d in rot)) for v, rot in sphere.rotation.items())
    twin = dict(grid.twin)
    twin.update((d + off, e + off) for d, e in sphere.twin.items())
    return EmbeddedGraph(rotation, twin, {**grid.vertex_kind, **sphere.vertex_kind}, "plane")


def wheel_plane(n: int = 5):
    """Wheel with hub 0 and rim 1..n, planar embedding."""
    rim = [(i, i % n + 1) for i in range(1, n + 1)]
    g = build_graph([(0, i) for i in range(1, n + 1)] + rim)
    faces = [(0, i, i % n + 1) for i in range(1, n + 1)]
    faces.append(tuple(range(n, 0, -1)))
    return embed(faces, "plane", g), g


def quad_with_crossing():
    """A square with crossing diagonals; crossing vertex 4."""
    faces = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4), (3, 2, 1, 0)]
    g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    return embed(faces, "plane", g, crossings={4}), g


def hexagon_two_crossings():
    """Hexagon with chords (0,2)x(1,5) and (2,4)x(3,5); its central face is a
    4-face alternating true/crossing/true/crossing."""
    faces = [
        (0, 1, 6),
        (1, 2, 6),
        (2, 3, 7),
        (3, 4, 7),
        (4, 5, 7),
        (5, 0, 6),
        (2, 7, 5, 6),
        (0, 5, 4, 3, 2, 1),
    ]
    g = build_graph(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
         (0, 2), (1, 5), (2, 4), (3, 5)]
    )
    e = embed(faces, "plane", g, crossings={6, 7})
    return e, g


def graph_from_faces(faces):
    """Underlying simple graph of a closed drawing with no crossings."""
    edges = sorted(
        {
            tuple(sorted((f[i], f[(i + 1) % len(f)])))
            for f in faces
            for i in range(len(f))
        }
    )
    return build_graph(edges)


def wrap_drawing(faces, surface="plane", crossings=(), g=None):
    """Embed a closed drawing as-is (no augmentation pass)."""
    from totalcolor.augment import AugmentedGraph

    if g is None:
        g = graph_from_faces(faces)
    e = embed(faces, surface, g, crossings=crossings)
    return AugmentedGraph(g=g, base=e, star=e, insertions=[])


def dart_towards(star, v, w):
    """The dart at v whose segment leads to w."""
    for d in star.rotation[v]:
        if star.other_end(d) == w:
            return d
    raise KeyError((v, w))


def petal_fan(v, chain):
    """Triangle petals (a, v, b) walking `chain`; pumps v's degree by
    one new neighbour per step."""
    return [(x, v, y) for x, y in zip(chain, chain[1:])]


def grid_faces(m, n):
    """The face list of torus_grid(m, n), for cut-and-patch fixtures."""

    def v(i, j):
        return (i % m) * n + (j % n)

    return [
        (v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1))
        for i in range(m)
        for j in range(n)
    ]


# -- total-coloring oracle -----------------------------------------------------

def total_elements(g: SimpleGraph) -> list:
    """Vertices then edges, as tagged tuples."""
    return [("v", v) for v in sorted(g.vertices)] + [
        ("e",) + e for e in g.edges()
    ]


def elements_conflict(g: SimpleGraph, x, y) -> bool:
    """Naive adjacency/incidence test between two elements."""
    if x == y:
        return False
    if x[0] == "v" and y[0] == "v":
        return g.has_edge(x[1], y[1])
    if x[0] == "e" and y[0] == "e":
        return bool({x[1], x[2]} & {y[1], y[2]})
    v = x if x[0] == "v" else y
    e = y if x[0] == "v" else x
    return v[1] in (e[1], e[2])


def brute_conflicts(g: SimpleGraph, colors: dict) -> list:
    """All conflicting element pairs under a full element -> color map."""
    els = total_elements(g)
    bad = []
    for i, x in enumerate(els):
        for y in els[i + 1:]:
            if elements_conflict(g, x, y) and colors[x] == colors[y]:
                bad.append((x, y))
    return bad


def brute_chi_tt(g: SimpleGraph, cap: int = 8) -> int:
    """Smallest palette admitting a total coloring, by plain backtracking
    in fixed element order with no pruning heuristics."""
    els = total_elements(g)
    if not els:
        return 0
    pairs = [
        [j for j in range(i) if elements_conflict(g, els[i], els[j])]
        for i in range(len(els))
    ]

    def fill(i, kappa, assigned):
        if i == len(els):
            return True
        taken = {assigned[j] for j in pairs[i]}
        for c in range(1, kappa + 1):
            if c not in taken:
                assigned.append(c)
                if fill(i + 1, kappa, assigned):
                    return True
                assigned.pop()
        return False

    for kappa in range(1, cap + 1):
        if fill(0, kappa, []):
            return kappa
    raise AssertionError(f"no total coloring within {cap} colors")


# seeded drawings from each generator family, on the torus and the plane
GENERATED_DRAWINGS = st.one_of(
    st.builds(
        lambda m, n, pairs, seed: gen_crossed(gen_toroidal_grid(m, n)[1], pairs, seed),
        st.integers(3, 6),
        st.integers(3, 6),
        st.integers(0, 4),
        st.integers(0, 10**6),
    ),
    st.builds(
        lambda size, seed: gen_planar_triangulation(size, seed)[1],
        st.integers(3, 40),
        st.integers(0, 10**6),
    ),
    st.builds(
        lambda size, seed: gen_high_degree_P_drawing(11, size, seed)[1],
        st.one_of(st.just(12), st.integers(23, 40)),  # 13..22 cannot be drawn
        st.integers(0, 10**6),
    ),
)

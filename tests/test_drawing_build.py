"""How a drawing is built: the exact text of every error `from_face_cycles`
and the constructor raise, and the argument for checking derived origins
only for an edge drawn more than once: every drawing built from face
cycles passes the full origin check."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalcolor.configs import all_configs, close_drawing
from totalcolor.embedding import (
    EmbeddedGraph,
    EmbedError,
    _face_rotation,
    dump_embedding,
    from_face_cycles,
    parse_embedding,
)
from totalcolor.gen import (
    GenError,
    gen_crossed,
    gen_high_degree_P_drawing,
    gen_planar_triangulation,
    gen_toroidal_grid,
    true_graph_of,
)
from totalcolor.graphs import build_graph

from helpers import GENERATED_DRAWINGS, quad_with_crossing


@pytest.mark.parametrize(
    "faces, wanted",
    [
        ([()], "face cycle () too short"),
        ([(0, 1, 2), (0,)], "face cycle (0,) too short"),
        ([(0, 0, 1)], "face cycle (0, 0, 1) repeats vertex 0 consecutively"),
        ([(0, 1, 2), (0, 1, 3)], "directed side (0,1) used twice"),
        ([(0, 1, 2)], "side (0,1) has no reverse side"),
        # two triangles pinched at vertex 0: its corners close into two cycles
        (
            [(0, 1, 2), (2, 1, 0), (0, 3, 4), (4, 3, 0)],
            "corners at vertex 0 do not close into one rotation",
        ),
    ],
)
def test_face_cycle_error_texts(faces, wanted):
    with pytest.raises(EmbedError) as info:
        from_face_cycles(faces, "plane")
    assert str(info.value) == wanted


# the square 0-1-2-3 with both diagonals, 0-2 drawn once more through the
# crossing 4 that 1-3 passes
TWICE_DRAWN = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4), (0, 3, 2), (2, 1, 0)]


def test_a_derived_edge_drawn_twice_is_named():
    with pytest.raises(EmbedError) as info:
        from_face_cycles(TWICE_DRAWN, "plane", {4})
    assert str(info.value) == "edge (0, 2) crosses twice"


def _rebuilt(e, origins: dict, kinds=None):
    """A builder of e's rotation system with e's origins but these, each
    keyed by the two ends of its segment, ascending."""
    by_ends = {tuple(sorted(e.owner[d] for d in key)): key for key in e.segment_origin}
    origin = dict(e.segment_origin)
    for ends, edge in origins.items():
        origin[by_ends[ends]] = edge
    return lambda: EmbeddedGraph(e.rotation, e.twin, kinds or e.vertex_kind, e.surface, origin)


def _given_origin_faults():
    quad, _ = quad_with_crossing()  # crossing 4 joins 0-2 and 1-3
    twice = from_face_cycles(TWICE_DRAWN, "plane")  # 4 drawn as a true vertex
    dropped = dict(quad.segment_origin)
    dropped.popitem()
    tripled = dict(quad.segment_origin)
    tripled[(0, 14, 1)] = tripled.pop((0, 14))
    cover = "segment_origin must cover exactly the segments"
    return [
        (cover, lambda: EmbeddedGraph(quad.rotation, quad.twin, quad.vertex_kind, "plane", dropped)),
        # a key that is no pair of darts
        (cover, lambda: EmbeddedGraph(quad.rotation, quad.twin, quad.vertex_kind, "plane", tripled)),
        ("segment (2, 10) ends at 0, off its origin (1, 3)", _rebuilt(
            quad, {(0, 4): (1, 3), (2, 4): (1, 3), (1, 4): (0, 2), (3, 4): (0, 2)}
        )),
        ("edge (0, 2) crosses twice", _rebuilt(
            twice,
            {(0, 4): (0, 2), (2, 4): (0, 2), (1, 4): (1, 3), (3, 4): (1, 3)},
            {**twice.vertex_kind, 4: "crossing"},
        )),
        ("edge (0, 1) has a parallel uncrossed segment", lambda: EmbeddedGraph(
            {0: (0, 3), 1: (1, 2)}, {0: 1, 1: 0, 2: 3, 3: 2}, {0: "true", 1: "true"},
            "plane", {(0, 1): (0, 1), (2, 3): (0, 1)},
        )),
        ("segment at crossing 4 lacks an origin edge", _rebuilt(quad, {(1, 4): None})),
        (
            "origins at crossing 4 must interleave two edges, got [(0, 2), (1, 3), (2, 5), (1, 3)]",
            _rebuilt(quad, {(2, 4): (2, 5)}),
        ),
    ]


def test_given_origin_error_texts():
    for wanted, build in _given_origin_faults():
        with pytest.raises(EmbedError) as info:
            build()
        assert str(info.value) == wanted


def _assert_origins_pass_the_full_check(e):
    # the check given origins get, run on origins the constructor derived
    EmbeddedGraph(e.rotation, e.twin, e.vertex_kind, e.surface, e.segment_origin)
    e._validate_origins()


def test_catalog_and_generated_drawings_pass_the_full_origin_check():
    for cfg in all_configs():
        _assert_origins_pass_the_full_check(cfg.build().star)
    for e in (
        gen_toroidal_grid(5, 7)[1],
        gen_crossed(gen_toroidal_grid(8, 8)[1], 12, seed=3),
        gen_planar_triangulation(200, seed=5)[1],
        gen_high_degree_P_drawing(12, 60, seed=2)[1],
    ):
        _assert_origins_pass_the_full_check(e)


@settings(max_examples=40, deadline=None)
@given(GENERATED_DRAWINGS)
def test_every_drawing_from_face_cycles_passes_the_full_origin_check(e):
    _assert_origins_pass_the_full_check(e)


# -- given origins: stored ascending, a loop through a crossing rejected -------


def test_given_origins_are_stored_ascending():
    # two uncrossed segments joining 0 and 1, their origin given each way
    with pytest.raises(EmbedError) as info:
        EmbeddedGraph(
            {0: (0, 3), 1: (1, 2)}, {0: 1, 1: 0, 2: 3, 3: 2}, {0: "true", 1: "true"},
            "plane", {(0, 1): (0, 1), (2, 3): (1, 0)},
        )
    assert str(info.value) == "edge (0, 1) has a parallel uncrossed segment"
    quad, g = quad_with_crossing()
    flipped = {key: edge[::-1] for key, edge in quad.segment_origin.items()}
    e = EmbeddedGraph(quad.rotation, quad.twin, quad.vertex_kind, "plane", flipped)
    assert list(e.segment_origin.items()) == list(quad.segment_origin.items())
    assert true_graph_of(e) == g


def test_a_loop_origin_is_rejected():
    # both halves of 0-2 through crossing 4 named a loop at 0
    quad, _ = quad_with_crossing()
    with pytest.raises(EmbedError) as info:
        _rebuilt(quad, {(0, 4): (0, 0), (2, 4): (0, 0)})()
    assert str(info.value) == "segment (4, 8) ends at 2, off its origin (0, 0)"


# vertex 0 drawn through crossing 3 back to itself, across edge 1-2
LOOP_THROUGH_A_CROSSING = (
    "surface: plane\nrotation:\n0: 0 2\n1: 4\n2: 6\n3: 1 5 3 7\ncrossings:\n3\n"
    "twins:\n0 1\n2 3\n4 5\n6 7\n"
)


@pytest.mark.parametrize(
    "origins",
    [
        "",
        "origins:\n0 1 -> 0 0\n2 3 -> 0 0\n4 5 -> 1 2\n6 7 -> 1 2\n",
        # an origin that hides the loop, and once named a vertex not drawn
        "origins:\n0 1 -> 0 9\n2 3 -> 0 9\n4 5 -> 1 2\n6 7 -> 1 2\n",
    ],
    ids=["derived", "loop", "hidden"],
)
def test_a_loop_through_a_crossing_is_rejected(origins):
    with pytest.raises(EmbedError) as info:
        parse_embedding(LOOP_THROUGH_A_CROSSING + origins)
    assert str(info.value) == "crossing 3 joins vertex 0 to itself"


# -- the builders against the bodies they replaced ------------------------------


def reference_face_rotation(face_cycles):
    """_face_rotation as it was: a side at a time, degrees counted first."""
    dart_of: dict = {}
    face_next: list = []
    for cyc in face_cycles:
        if len(cyc) < 2:
            raise EmbedError(f"face cycle {cyc} too short")
        first = len(dart_of)
        for side in zip(cyc, cyc[1:] + cyc[:1]):
            if side[0] == side[1]:
                raise EmbedError(f"face cycle {cyc} repeats vertex {side[0]} consecutively")
            if side in dart_of:
                raise EmbedError(f"directed side ({side[0]},{side[1]}) used twice")
            dart_of[side] = len(dart_of)
        face_next.extend(range(first + 1, len(dart_of)))
        face_next.append(first)
    twin = {}
    for (u, w), d in dart_of.items():
        e = dart_of.get((w, u))
        if e is None:
            raise EmbedError(f"side ({u},{w}) has no reverse side")
        twin[d] = e
    degree = Counter(u for u, _ in dart_of)
    rotation: dict = {}
    for start, (v, _) in enumerate(dart_of):
        if v in rotation:
            continue
        cycle = [start]
        d = face_next[twin[start]]
        while d != start:
            cycle.append(d)
            d = face_next[twin[d]]
        if len(cycle) != degree[v]:
            raise EmbedError(f"corners at vertex {v} do not close into one rotation")
        rotation[v] = tuple(cycle)
    return rotation, twin


def reference_true_graph_of(e):
    """true_graph_of as it was: build_graph, testing every edge."""
    edges = set()
    for origin in e.segment_origin.values():
        if origin is None:
            raise GenError("base drawing carries unresolved new segments")
        edges.add(origin)
    return build_graph(edges, vertices=e.true_vertices())


def _outcome(f, *args):
    """What f returns, each dict as its item list, or its error."""
    try:
        out = f(*args)
    except (EmbedError, GenError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        return [list(x.items()) for x in out]
    return out


def _same_face_rotation(faces):
    assert _outcome(_face_rotation, faces) == _outcome(reference_face_rotation, faces)


def _same_true_graph(e):
    assert _outcome(true_graph_of, e) == _outcome(reference_true_graph_of, e)


def _face_lists(e):
    return [e.face_vertices(f) for f in e.faces()]


def _spoiled(faces, how, at):
    """faces with one fault of kind `how` planted at face index `at`."""
    faces = list(faces)
    i = at % len(faces)
    f = tuple(faces[i])
    if how == "drop":
        del faces[i]
    elif how == "repeat-face":
        faces.insert(at % (len(faces) + 1), f)
    elif how == "reverse":
        faces[i] = f[::-1]
    elif how == "repeat-vertex":
        faces[i] = f[:1] + f
    elif how == "short":
        faces[i] = f[:1]
    elif how == "pinch":
        # a second copy of the drawing's faces beside it, sharing vertex f[0]
        base = max(v for g in faces for v in g) + 1
        faces += [tuple(f[0] if v == f[0] else v + base for v in g) for g in faces]
    elif how == "swap":
        j = (at * 7 + 3) % len(faces)
        faces[i], faces[j] = faces[j], faces[i]
    return faces


@settings(max_examples=80, deadline=None)
@given(
    GENERATED_DRAWINGS,
    st.sampled_from(
        ["none", "drop", "repeat-face", "reverse", "repeat-vertex", "short", "pinch", "swap"]
    ),
    st.integers(0, 10**6),
)
def test_face_rotation_matches_the_reference(e, how, at):
    _same_face_rotation(_spoiled(_face_lists(e), how, at))
    _same_true_graph(e)


def test_builders_match_the_reference_on_the_catalog():
    _same_face_rotation([])
    for cfg in all_configs():
        faces = close_drawing(cfg.faces)
        _same_face_rotation(faces)
        _same_true_graph(cfg.build().star)  # new pairs: no graph, in both
        _same_true_graph(from_face_cycles(faces, "plane", cfg.crossings))


@pytest.mark.parametrize("k", range(3))
def test_builders_match_the_reference_on_the_bench_inputs_at_seed_2(k):
    # the inputs of the benchmark's drawing workloads at seed 2, as drawn
    # and as read back from their text
    seed = 2 * 1009 + k
    for e in (
        gen_planar_triangulation(3000, seed)[1],
        gen_crossed(gen_toroidal_grid(24, 24)[1], 70, seed),
    ):
        _same_face_rotation(_face_lists(e))
        _same_true_graph(e)
        _same_true_graph(parse_embedding(dump_embedding(e)))

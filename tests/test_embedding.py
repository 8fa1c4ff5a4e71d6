import pytest

from totalcolor.embedding import (
    EmbeddedGraph,
    EmbedError,
    charge_sum_identity,
    check_against_graph,
    check_two_cell,
    dart_face_index,
    dump_embedding,
    euler_characteristic,
    from_face_cycles,
    parse_embedding,
)
from totalcolor.gen import gen_planar_triangulation, gen_toroidal_grid
from totalcolor.graphs import build_graph

from helpers import complete_graph


K4_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]

# K5 drawn with edges (0,1) and (3,4) crossing at vertex 5
K5X_FACES = [
    (0, 5, 3),
    (5, 1, 3),
    (0, 4, 5),
    (5, 4, 1),
    (1, 2, 3),
    (0, 3, 2),
    (1, 4, 2),
    (0, 2, 4),
]


def planar_k4():
    return from_face_cycles(K4_FACES, "plane", g=complete_graph(4))


def k5_crossed():
    return from_face_cycles(K5X_FACES, "plane", crossing_vertices={5}, g=complete_graph(5))


def torus_grid(m, n):
    def v(i, j):
        return (i % m) * n + (j % n)

    faces = [
        (v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1))
        for i in range(m)
        for j in range(n)
    ]
    return from_face_cycles(faces, "torus")


def test_planar_k4_faces():
    e = planar_k4()
    faces = e.faces()
    assert len(faces) == 4
    assert all(f.size == 3 for f in faces)
    assert euler_characteristic(e) == 2


def test_k5_crossed_structure():
    e = k5_crossed()
    assert len(e.rotation) == 6
    assert e.crossing_vertices() == [5]
    assert e.degree(5) == 4
    assert e.num_segments() == 12
    assert len(e.faces()) == 8
    assert euler_characteristic(e) == 2
    # the two crossed edges are recovered from the rotation at the crossing
    crossed = {edge for edge in e.segment_origin.values() if edge is not None}
    assert (0, 1) in crossed and (3, 4) in crossed


def test_torus_grid_c3c3():
    e = torus_grid(3, 3)
    faces = e.faces()
    assert len(faces) == 9
    assert all(f.size == 4 for f in faces)
    assert e.num_segments() == 18
    assert euler_characteristic(e) == 0
    check_two_cell(e)


def test_plane_c5_two_faces():
    e = from_face_cycles([(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)], "plane")
    faces = e.faces()
    assert sorted(f.size for f in faces) == [5, 5]
    assert euler_characteristic(e) == 2


def test_two_cell_mismatch_rejected():
    def v(i, j):
        return (i % 3) * 3 + (j % 3)

    faces = [
        (v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1))
        for i in range(3)
        for j in range(3)
    ]
    e = from_face_cycles(faces, "plane")  # really a torus embedding
    with pytest.raises(EmbedError, match="not 2-cell"):
        check_two_cell(e)


@pytest.mark.parametrize("make", [planar_k4, k5_crossed, lambda: torus_grid(3, 4)])
def test_dart_conservation(make):
    e = make()
    faces = e.faces()
    total = sum(f.size for f in faces)
    assert total == 2 * e.num_segments()
    assert total == sum(len(rot) for rot in e.rotation.values())
    # every dart on exactly one face
    idx = dart_face_index(faces)
    assert sorted(idx) == sorted(e.twin)


@pytest.mark.parametrize("make", [planar_k4, k5_crossed, lambda: torus_grid(4, 5)])
def test_charge_sum_identity(make):
    e = make()
    got, expected = charge_sum_identity(e)
    assert got == expected


def test_faces_start_at_min_dart():
    e = k5_crossed()
    for f in e.faces():
        assert f.boundary[0] == min(f.boundary)


def test_face_vertices():
    e = planar_k4()
    for f in e.faces():
        vs = e.face_vertices(f)
        assert len(set(vs)) == 3


def test_side_used_twice_rejected():
    with pytest.raises(EmbedError, match="used twice"):
        from_face_cycles([(0, 1, 2), (0, 1, 3)], "plane")


def test_missing_reverse_side_rejected():
    with pytest.raises(EmbedError, match="no reverse"):
        from_face_cycles([(0, 1, 2)], "plane")


def test_crossing_degree_must_be_four():
    with pytest.raises(EmbedError, match="expected 4"):
        from_face_cycles(K4_FACES, "plane", crossing_vertices={0})


def test_adjacent_crossings_rejected():
    rotation = {
        0: (11,),
        1: (12,),
        2: (13,),
        3: (16,),
        4: (17,),
        5: (18,),
        10: (1, 2, 3, 4),
        11: (5, 6, 7, 8),
    }
    twin = {11: 1, 1: 11, 12: 2, 2: 12, 13: 3, 3: 13,
            4: 5, 5: 4, 16: 6, 6: 16, 17: 7, 7: 17, 18: 8, 8: 18}
    kinds = {v: "true" for v in (0, 1, 2, 3, 4, 5)}
    kinds[10] = kinds[11] = "crossing"
    with pytest.raises(EmbedError, match="adjacent crossing"):
        EmbeddedGraph(rotation, twin, kinds, "plane")


def test_twin_not_involution_rejected():
    with pytest.raises(EmbedError, match="involution|own twin"):
        EmbeddedGraph({0: (1,), 1: (2,), 2: (3,)}, {1: 2, 2: 3, 3: 1},
                      {0: "true", 1: "true", 2: "true"}, "plane")


def test_loop_segment_rejected():
    with pytest.raises(EmbedError, match="loop"):
        EmbeddedGraph({0: (1, 2)}, {1: 2, 2: 1}, {0: "true"}, "plane")


def quad_with_crossing():
    faces = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4), (3, 2, 1, 0)]
    g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    return from_face_cycles(faces, "plane", crossing_vertices={4}, g=g), g


def test_quad_crossing_origins():
    e, _ = quad_with_crossing()
    crossed = sorted(
        edge
        for key, edge in e.segment_origin.items()
        if any(e.owner[d] == 4 for d in key)
    )
    assert crossed == [(0, 2), (0, 2), (1, 3), (1, 3)]


def test_bad_origins_rejected():
    e, _ = quad_with_crossing()
    bad = dict(e.segment_origin)
    for key in bad:
        if any(e.owner[d] == 4 for d in key):
            bad[key] = (0, 2)
    with pytest.raises(EmbedError):
        EmbeddedGraph(e.rotation, e.twin, e.vertex_kind, "plane", bad)


def test_origins_must_end_where_their_segments_end():
    """Swapping the two crossed edges' origins keeps every crossing
    interleaved, but each crossing segment then names an edge that does
    not end at its true vertex."""
    e, _ = quad_with_crossing()
    swap = {(0, 2): (1, 3), (1, 3): (0, 2)}
    bad = {key: swap.get(edge, edge) for key, edge in e.segment_origin.items()}
    with pytest.raises(EmbedError, match="off its origin"):
        EmbeddedGraph(e.rotation, e.twin, e.vertex_kind, "plane", bad)


def grid_text():
    return dump_embedding(gen_toroidal_grid(3, 3)[1])


@pytest.mark.parametrize("origin", ["0 8", "100 200"])
def test_parse_rejects_an_origin_off_its_segment(origin):
    # segment 0-10 joins vertices 0 and 3
    text = grid_text()
    assert "0 10 -> 0 3\n" in text
    with pytest.raises(EmbedError, match=r"segment \(0, 10\) ends at .*off its origin"):
        parse_embedding(text.replace("0 10 -> 0 3\n", f"0 10 -> {origin}\n"))


@pytest.mark.parametrize(
    "edit, wanted",
    [
        (lambda t: "surface: plane\n" + t, "line 2: repeated 'surface:' line"),
        (
            lambda t: t.replace("rotation:\n", "rotation:\n0: 0 11 34 25\n"),
            "line 4: repeated rotation of vertex 0",
        ),
        (
            lambda t: t.replace("origins:\n", "origins:\n0 10 -> 0 3\n"),
            r"repeated origin of segment \(0, 10\)",
        ),
        (
            lambda t: t.replace("twins:\n", "crossings:\n99\ntwins:\n"),
            "crossing 99 names no vertex",
        ),
    ],
    ids=["surface", "rotation", "origin", "crossing"],
)
def test_parse_rejects_repeated_or_dangling_entries(edit, wanted):
    text = grid_text()
    assert parse_embedding(text).surface == "torus"
    with pytest.raises(EmbedError, match=wanted):
        parse_embedding(edit(text))


def test_check_against_graph_mismatches():
    e = planar_k4()
    with pytest.raises(EmbedError, match="not an edge"):
        check_against_graph(e, build_graph([(0, 1), (1, 2), (2, 0)], vertices=range(4)))
    bigger = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    with pytest.raises(EmbedError, match="vertices differ"):
        check_against_graph(e, bigger)


def test_embedding_text_roundtrip():
    e = k5_crossed()
    text = dump_embedding(e)
    back = parse_embedding(text)
    assert back.rotation == e.rotation
    assert back.twin == e.twin
    assert back.vertex_kind == e.vertex_kind
    assert back.surface == e.surface
    assert back.segment_origin == e.segment_origin


def test_parse_embedding_errors():
    with pytest.raises(EmbedError, match="line 1"):
        parse_embedding("0: 1 2\n")
    with pytest.raises(EmbedError, match="missing 'surface:'"):
        parse_embedding("rotation:\n")
    with pytest.raises(EmbedError, match="line 3"):
        parse_embedding("surface: plane\ntwins:\n1 2 3\n")


def test_parse_embedding_rejects_mislabelled_surface():
    _, e = gen_planar_triangulation(20, seed=1)
    text = dump_embedding(e)
    assert parse_embedding(text).surface == "plane"
    with pytest.raises(EmbedError, match="not 2-cell for declared surface torus"):
        parse_embedding(text.replace("surface: plane", "surface: torus"))

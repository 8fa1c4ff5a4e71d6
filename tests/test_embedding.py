import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalcolor.embedding import (
    ChordEdit,
    EmbeddedGraph,
    EmbedError,
    charge_sum_identity,
    check_two_cell,
    dart_face_index,
    dump_embedding,
    euler_characteristic,
    from_face_cycles,
    parse_embedding,
)
from totalcolor.augment import build_g_star
from totalcolor.gen import GenError, gen_planar_triangulation, gen_toroidal_grid, true_graph_of

from helpers import (
    GENERATED_DRAWINGS,
    GRID_BESIDE_A_SPHERE,
    complete_graph,
    embed,
    grid_beside_a_sphere,
    quad_with_crossing,
)


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
    return embed(K4_FACES, "plane", complete_graph(4))


def k5_crossed():
    return embed(K5X_FACES, "plane", complete_graph(5), crossings={5})


def torus_grid(m, n, new_pairs=()):
    def v(i, j):
        return (i % m) * n + (j % n)

    faces = [
        (v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1))
        for i in range(m)
        for j in range(n)
    ]
    return from_face_cycles(faces, "torus", new_pairs=new_pairs)


def test_planar_k4_faces():
    e = planar_k4()
    faces = e.faces()
    assert len(faces) == 4
    assert all(len(f) == 3 for f in faces)
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
    assert all(len(f) == 4 for f in faces)
    assert e.num_segments() == 18
    assert euler_characteristic(e) == 0
    check_two_cell(e)


def test_plane_c5_two_faces():
    e = from_face_cycles([(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)], "plane")
    faces = e.faces()
    assert sorted(len(f) for f in faces) == [5, 5]
    assert euler_characteristic(e) == 2


def test_two_cell_mismatch_rejected():
    t = torus_grid(3, 3)
    # really a torus embedding; from_face_cycles would refuse "plane"
    e = EmbeddedGraph(t.rotation, t.twin, t.vertex_kind, "plane")
    with pytest.raises(EmbedError, match="not 2-cell"):
        check_two_cell(e)


def test_from_face_cycles_rejects_a_drawing_off_its_surface():
    # the given cycles are the faces, so V-E+F is known without a face trace
    with pytest.raises(EmbedError, match=r"surface torus: V-E\+F = 2, expected 0"):
        from_face_cycles(K4_FACES, "torus")
    t = torus_grid(3, 3)
    faces = [t.face_vertices(f) for f in t.faces()]
    with pytest.raises(EmbedError, match=r"surface plane: V-E\+F = 0, expected 2"):
        from_face_cycles(faces, "plane")


def test_a_disconnected_drawing_is_not_2_cell():
    # V-E+F adds up over components, so only the component count tells
    # this torus-plus-sphere from a plane drawing
    wanted = "surface plane: the drawing has 2 connected components, expected 1"
    with pytest.raises(EmbedError, match=wanted):
        from_face_cycles(GRID_BESIDE_A_SPHERE, "plane")
    e = grid_beside_a_sphere()
    assert euler_characteristic(e) == 2
    with pytest.raises(EmbedError, match=wanted):
        check_two_cell(e)
    with pytest.raises(EmbedError, match=wanted):
        parse_embedding(dump_embedding(e))
    # an empty drawing has no component, though V-E+F = 0 fits the torus
    with pytest.raises(EmbedError, match="has 0 connected components"):
        parse_embedding("surface: torus\n")


@pytest.mark.parametrize("make", [planar_k4, k5_crossed, lambda: torus_grid(3, 4)])
def test_dart_conservation(make):
    e = make()
    faces = e.faces()
    total = sum(len(f) for f in faces)
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
        assert f[0] == min(f)


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


def test_from_face_cycles_rejects_a_crossing_that_names_no_vertex():
    # the same check, with the same message, as parse_embedding's
    with pytest.raises(EmbedError, match="crossing 9 names no vertex"):
        from_face_cycles(K5X_FACES, "plane", crossing_vertices={5, 9})


def test_from_face_cycles_marks_each_new_pair_origin_less():
    plain = torus_grid(4, 4)
    e = torus_grid(4, 4, new_pairs=((1, 0),))
    owner = e.owner
    news = [k for k, o in e.segment_origin.items() if o is None]
    assert [{owner[d] for d in k} for k in news] == [{0, 1}]
    assert e.rotation == plain.rotation
    assert {k: o for k, o in e.segment_origin.items() if o is not None} == {
        k: o for k, o in plain.segment_origin.items() if k not in news
    }
    assert e.new_darts() == set(news[0])
    # the drawing's graph is no longer fixed: 0-1 is a new edge of G*
    with pytest.raises(GenError, match="unresolved new segments"):
        true_graph_of(e)
    # 0 and 5 lie on a face but share no segment
    with pytest.raises(EmbedError, match="new pair 0,5: expected exactly one segment, found 0"):
        torus_grid(4, 4, new_pairs=((0, 1), (0, 5)))
    # a crossing needs the origins of its four segments
    with pytest.raises(EmbedError, match="segment at crossing 5 lacks an origin edge"):
        from_face_cycles(K5X_FACES, "plane", crossing_vertices={5}, new_pairs=((0, 5),))


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


def test_a_dart_repeated_in_one_rotation_names_its_vertex():
    # it was once reported as "dart 0 appears in two rotations"
    with pytest.raises(EmbedError, match="^dart 0 appears twice in the rotation of vertex 0$"):
        EmbeddedGraph({0: (0, 0)}, {}, {0: "true"}, "plane")
    with pytest.raises(EmbedError, match="^dart 1 appears in two rotations$"):
        EmbeddedGraph({0: (1,), 1: (1,)}, {}, {0: "true", 1: "true"}, "plane")


def test_loop_segment_rejected():
    with pytest.raises(EmbedError, match="loop"):
        EmbeddedGraph({0: (1, 2)}, {1: 2, 2: 1}, {0: "true"}, "plane")


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
        (
            lambda t: t.replace("twins:\n0 10\n", "twins:\n0 10\n0 10\n"),
            "repeated twin of dart 0",
        ),
        (
            lambda t: t.replace("twins:\n0 10\n", "twins:\n0 10\n10 0\n"),
            "repeated twin of dart 10",
        ),
    ],
    ids=["surface", "rotation", "origin", "crossing", "twin", "twin-reversed"],
)
def test_parse_rejects_repeated_or_dangling_entries(edit, wanted):
    text = grid_text()
    assert parse_embedding(text).surface == "torus"
    with pytest.raises(EmbedError, match=wanted):
        parse_embedding(edit(text))


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


# (section header, data lines, the exact EmbedError text); each text starts
# "surface: plane" and the header, so data lines are numbered from 3
PARSE_ERRORS = [
    ("twins:", "a a", "line 3: invalid literal for int() with base 10: 'a'"),
    ("origins:", "a a", "line 3: missing '->'"),
    ("rotation:", "a a", "line 3: missing ':'"),
    ("twins:", "1 2\n3 2", "line 4: repeated twin of dart 2"),
    ("twins:", "1 2 3", "line 3: too many values to unpack (expected 2)"),
    ("twins:", "1", "line 3: not enough values to unpack (expected 2, got 1)"),
    # a data line ending in ':' is no header; it fails as data
    ("twins:", "1 2:", "line 3: invalid literal for int() with base 10: '2:'"),
    ("origins:", "1 2 -> 3 4:", "line 3: invalid literal for int() with base 10: '4:'"),
    ("origins:", "1 2:", "line 3: missing '->'"),
    ("origins:", "1 2 -> new:", "line 3: invalid literal for int() with base 10: 'new:'"),
    ("origins:", "1 2 3 4", "line 3: missing '->'"),
    ("origins:", "1 2 -> 3 ->", "line 3: invalid literal for int() with base 10: '->'"),
    # the repeated key is named before the right side is read
    ("origins:", "1 2 -> 3 4\n2 1 -> x", "line 4: repeated origin of segment (1, 2)"),
    ("origins:", "-> new x", "line 3: not enough values to unpack (expected 2, got 0)"),
    ("origins:", "1 2 -> 3", "line 3: not enough values to unpack (expected 2, got 1)"),
    ("twins: # the twins", "1 2 # first\n1 3 # again", "line 4: repeated twin of dart 1"),
    ("origins:", "1 2 -> new\nsurface: torus", "line 4: repeated 'surface:' line"),
    ("", "1 2", "line 3: content outside any section"),
]


@pytest.mark.parametrize("header, lines, wanted", PARSE_ERRORS)
def test_parse_embedding_error_texts(header, lines, wanted):
    with pytest.raises(EmbedError) as info:
        parse_embedding(f"surface: plane\n{header}\n{lines}\n")
    assert str(info.value) == wanted


def test_parse_embedding_rejects_mislabelled_surface():
    _, e = gen_planar_triangulation(20, seed=1)
    text = dump_embedding(e)
    assert parse_embedding(text).surface == "plane"
    with pytest.raises(EmbedError, match="not 2-cell for declared surface torus"):
        parse_embedding(text.replace("surface: plane", "surface: torus"))


@settings(max_examples=60, deadline=None)
@given(GENERATED_DRAWINGS, st.booleans())
def test_generated_drawing_round_trip(e, augmented):
    if augmented:
        # G* carries new segments, written with origin "new"
        e = build_g_star(e, true_graph_of(e)).star
    back = parse_embedding(dump_embedding(e))
    assert back.rotation == e.rotation
    assert back.twin == e.twin
    assert back.vertex_kind == e.vertex_kind
    assert back.segment_origin == e.segment_origin
    assert back.surface == e.surface


# -- chord edits ---------------------------------------------------------------


def test_chord_edit_splits_a_face_and_leaves_its_base_alone():
    e = from_face_cycles([(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)], "plane")
    text = dump_embedding(e)
    edit = ChordEdit(e)
    face = e.faces()[0]
    p, q = edit.split(face, 0, 3)
    star = edit.finish()
    assert dump_embedding(e) == text
    assert (len(p), len(q)) == (4, 4)
    assert star.segment_origin[p[0], q[0]] is None
    assert star.faces() == EmbeddedGraph(
        star.rotation, star.twin, star.vertex_kind, star.surface, star.segment_origin
    ).faces()
    assert euler_characteristic(star) == 2


@pytest.mark.parametrize(
    "i, j, wanted",
    [
        (0, 1, "corners 0, 1 are consecutive on a face of size 6"),
        (0, 5, "corners 0, 5 are consecutive on a face of size 6"),
        (3, 1, "corners 3, 1 are not in order on a face of size 6"),
        (-1, 2, "corners -1, 2 are not in order on a face of size 6"),
        (2, 6, "corners 2, 6 are not in order on a face of size 6"),
    ],
)
def test_chord_edit_rejects_corners_out_of_order_or_consecutive(i, j, wanted):
    e = from_face_cycles([(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)], "plane")
    with pytest.raises(EmbedError, match=wanted):
        ChordEdit(e).split(e.faces()[0], i, j)


def test_chord_edit_rejects_an_end_at_a_crossing():
    # the central 4-face of the hexagon alternates true 2, crossing 7,
    # true 5, crossing 6
    e = from_face_cycles(
        [(0, 1, 6), (1, 2, 6), (2, 3, 7), (3, 4, 7), (4, 5, 7), (5, 0, 6),
         (2, 7, 5, 6), (0, 5, 4, 3, 2, 1)],
        "plane",
        crossing_vertices={6, 7},
    )
    face = next(f for f in e.faces() if len(f) == 4)
    i, j = [k for k, d in enumerate(face) if e.owner[d] in (6, 7)]
    with pytest.raises(EmbedError, match="chord end [67] is a crossing vertex"):
        ChordEdit(e).split(face, i, j)


def test_chord_edit_rejects_both_ends_at_one_vertex():
    # a path 0-1-2 in the plane: its one face passes vertex 1 twice
    e = from_face_cycles([(0, 1, 2, 1)], "plane")
    (face,) = e.faces()
    i, j = [k for k, d in enumerate(face) if e.owner[d] == 1]
    with pytest.raises(EmbedError, match="chord joins vertex 1 to itself"):
        ChordEdit(e).split(face, i, j)


def test_chord_edit_rejects_a_face_split_already_or_never_one():
    e = from_face_cycles([(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)], "plane")
    edit = ChordEdit(e)
    face = e.faces()[0]
    turned = face[1:] + face[:1]
    for bad in (turned, (), (99, 100, 101, 102)):
        with pytest.raises(EmbedError, match="is not a face of the edit"):
            edit.split(bad, 0, 2)
    edit.split(face, 0, 3)
    with pytest.raises(EmbedError, match="is not a face of the edit"):
        edit.split(face, 0, 2)
    edit.finish()
    with pytest.raises(EmbedError, match="the edit is finished already"):
        edit.finish()
    with pytest.raises(EmbedError, match="is not a face of the edit"):
        edit.split(e.faces()[1], 0, 3)

"""Generator tests: fixed PRNG, grids, triangulations, crossing insertion,
the high-degree triangle-free family, and the corpus writer."""
from __future__ import annotations

import hashlib
import json
import random

import pytest

from totalcolor.embedding import (
    check_two_cell,
    dump_embedding,
    euler_characteristic,
    parse_embedding,
)
from totalcolor.gen import (
    GenError,
    GenSpec,
    Lcg64,
    gen_crossed,
    gen_high_degree_P,
    gen_high_degree_P_drawing,
    gen_planar_triangulation,
    gen_toroidal_grid,
    generate,
    write_corpus,
)
from totalcolor.graphs import (
    check_property_P,
    dump_edge_list,
    parse_edge_list,
)

from helpers import torus_grid


# ---------------------------------------------------------------------------
# the fixed PRNG


def test_lcg_frozen_words():
    # pinned so any rewrite of the generator is caught: corpora must
    # reproduce bit-for-bit
    assert [Lcg64(0).next_word() for _ in range(1)] == [335903614]
    r = Lcg64(0)
    assert [r.next_word() for _ in range(4)] == [
        335903614,
        436792849,
        2599843874,
        1723210473,
    ]
    r = Lcg64(2024)
    assert [r.next_word() for _ in range(4)] == [
        1542980004,
        1305980653,
        3050851468,
        1095741991,
    ]


def test_lcg_randrange_and_choice():
    r = Lcg64(1)
    assert [r.randrange(10) for _ in range(8)] == [8, 7, 3, 1, 8, 0, 0, 5]
    with pytest.raises(GenError, match="positive bound"):
        r.randrange(0)


def test_lcg_range_respected():
    r = Lcg64(99)
    for _ in range(500):
        assert 0 <= r.randrange(7) < 7


# ---------------------------------------------------------------------------
# toroidal grids


def test_grid_3x3_counts():
    g, e = gen_toroidal_grid(3, 3)
    assert len(g.vertices) == 9
    assert g.num_edges() == 18
    assert len(e.faces()) == 9
    assert all(f.size == 4 for f in e.faces())
    assert euler_characteristic(e) == 0
    assert all(g.degree(v) == 4 for v in g.vertices)
    check_two_cell(e)


def test_grid_3x4_counts():
    g, e = gen_toroidal_grid(3, 4)
    assert (len(g.vertices), g.num_edges(), len(e.faces())) == (12, 24, 12)


def test_grid_matches_reference_construction():
    g, e = gen_toroidal_grid(3, 4)
    ref_e, ref_g = torus_grid(3, 4)
    assert g == ref_g
    mine = sorted(tuple(sorted(e.face_vertices(f))) for f in e.faces())
    theirs = sorted(tuple(sorted(ref_e.face_vertices(f))) for f in ref_e.faces())
    assert mine == theirs


def test_grid_rejects_small_sides():
    for m, n in ((2, 3), (3, 2), (1, 5)):
        with pytest.raises(GenError, match="sides >= 3"):
            gen_toroidal_grid(m, n)


# ---------------------------------------------------------------------------
# stacked triangulations


def test_triangulation_counts():
    for size in (3, 4, 7, 12):
        g, e = gen_planar_triangulation(size, seed=3)
        assert len(g.vertices) == size
        assert g.num_edges() == 3 * size - 6
        assert len(e.faces()) == 2 * size - 4
        assert all(f.size == 3 for f in e.faces())
        assert euler_characteristic(e) == 2
        check_two_cell(e)


def test_triangulation_deterministic():
    a, _ = gen_planar_triangulation(15, seed=8)
    b, _ = gen_planar_triangulation(15, seed=8)
    c, _ = gen_planar_triangulation(15, seed=9)
    assert a == b
    assert a != c


def test_triangulation_too_small():
    with pytest.raises(GenError, match="at least 3"):
        gen_planar_triangulation(2)


# ---------------------------------------------------------------------------
# crossing-pair insertion


def test_crossed_zero_pairs_is_base():
    _, e = gen_toroidal_grid(3, 3)
    assert gen_crossed(e, 0, seed=4) is e


def test_crossed_rejects_negative_pairs():
    _, e = gen_toroidal_grid(3, 3)
    with pytest.raises(GenError, match="pair count must be >= 0") as exc_info:
        gen_crossed(e, -2, seed=0)
    assert exc_info.value.achieved is None


def test_crossed_one_pair():
    g, e = gen_toroidal_grid(3, 3)
    c = gen_crossed(e, 1, seed=1)
    assert len(c.crossing_vertices()) == 1
    x = c.crossing_vertices()[0]
    assert c.degree(x) == 4
    assert sorted(c.true_vertices()) == sorted(g.vertices)
    assert euler_characteristic(c) == 0
    check_two_cell(c)
    # chords went through the crossing: the four segments there pair up
    # into two fresh edges
    news = {c.segment_origin[k] for k in c.segment_origin if x in k[:0] or True}
    assert len({o for o in news if not g.has_edge(*o)}) == 2


def test_crossed_quad_capacity_is_face_count():
    """Every quad face hosts exactly one pair and the cut-up faces are all
    triangles, so the 3x3 grid takes exactly 9 pairs."""
    _, e = gen_toroidal_grid(3, 3)
    c = gen_crossed(e, 9, seed=2)
    assert len(c.crossing_vertices()) == 9
    assert all(f.size == 3 for f in c.faces())
    with pytest.raises(GenError, match="placed 9 of 10") as exc_info:
        gen_crossed(e, 10, seed=2)
    assert exc_info.value.achieved == 9


def test_crossed_rejects_all_triangle_base():
    _, e = gen_planar_triangulation(8, seed=0)
    with pytest.raises(GenError) as exc_info:
        gen_crossed(e, 1, seed=0)
    assert exc_info.value.achieved == 0


def test_crossed_frozen_fingerprint():
    _, e = gen_toroidal_grid(3, 3)
    c = gen_crossed(e, 3, seed=11)
    text = dump_embedding(c)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "3269291cb822ef87"
    # and the dump round-trips
    back = parse_embedding(text)
    assert sorted(back.crossing_vertices()) == sorted(c.crossing_vertices())


def test_crossed_seeds_diverge():
    _, e = gen_toroidal_grid(3, 3)
    dumps = {dump_embedding(gen_crossed(e, 2, seed=s)) for s in range(6)}
    assert len(dumps) > 1


def test_crossed_many_seeds_valid():
    _, e = gen_toroidal_grid(3, 4)
    for seed in range(10):
        c = gen_crossed(e, 4, seed=seed)
        check_two_cell(c)
        assert euler_characteristic(c) == 0
        assert all(c.degree(x) == 4 for x in c.crossing_vertices())


# ---------------------------------------------------------------------------
# high-degree triangle-free family


def test_high_degree_bare_star():
    g, e = gen_high_degree_P_drawing(11, 12)
    assert len(g.vertices) == 12
    assert g.num_edges() == 11
    assert g.max_degree() == 11
    assert euler_characteristic(e) == 2
    check_two_cell(e)


def test_high_degree_two_rings():
    g, e = gen_high_degree_P_drawing(11, 23)
    assert len(g.vertices) == 23
    assert g.num_edges() == 33
    sizes = sorted(f.size for f in e.faces())
    assert sizes == [4] * 11 + [22]
    assert g.max_degree() == 11


def test_high_degree_exact_size_and_degree():
    rng = random.Random(20240819)
    for _ in range(8):
        delta = rng.randrange(11, 15)
        size = rng.randrange(2 * delta + 1, 120)
        g, e = gen_high_degree_P_drawing(delta, size, seed=rng.randrange(1000))
        assert len(g.vertices) == size
        assert g.max_degree() == delta
        assert euler_characteristic(e) == 2
        check_two_cell(e)


def test_high_degree_triangle_free_and_P():
    for size in (23, 40, 77):
        g = gen_high_degree_P(11, size, seed=size)
        assert all(not g.common_neighbors(u, v) for u, v in g.edges())
        assert check_property_P(g).holds


def test_high_degree_rejections():
    with pytest.raises(GenError, match="starts at delta 11"):
        gen_high_degree_P(10, 40)
    with pytest.raises(GenError, match="cannot reach degree 11"):
        gen_high_degree_P(11, 5)
    with pytest.raises(GenError, match="between the bare star and two full rings"):
        gen_high_degree_P(11, 15)


def test_high_degree_deterministic():
    a = gen_high_degree_P(12, 80, seed=3)
    b = gen_high_degree_P(12, 80, seed=3)
    c = gen_high_degree_P(12, 80, seed=4)
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# specs and the corpus writer


def test_generate_families():
    cases = [
        (GenSpec("grid", (3, 4)), 12),
        (GenSpec("planar_triangulation", (7,), seed=2), 7),
        (GenSpec("crossed_grid", (3, 3, 2), seed=5), 9),
        (GenSpec("wheel_sum", (11, 34), seed=1), 34),
    ]
    for spec, n in cases:
        g, e = generate(spec)
        assert len(g.vertices) == n
        assert sorted(e.true_vertices()) == list(g.vertices)


def test_generate_unknown_family():
    with pytest.raises(GenError, match="unknown generator family"):
        generate(GenSpec("nope", ()))


def test_generate_rejects_wrong_parameter_count():
    for spec, wanted in [
        (GenSpec("grid", (5,)), r"grid takes 2 parameter\(s\) \(m, n\), got 1"),
        (GenSpec("planar_triangulation", ()), r"takes 1 parameter\(s\) \(size\), got 0"),
        (GenSpec("crossed_grid", (4, 4)), r"\(m, n, pairs\), got 2"),
        (GenSpec("wheel_sum", (12, 60, 1)), r"\(delta, size\), got 3"),
    ]:
        with pytest.raises(GenError, match=wanted) as exc_info:
            generate(spec)
        assert exc_info.value.achieved is None


def test_spec_slugs_are_filenames():
    ok = set("abcdefghijklmnopqrstuvwxyz0123456789-_x.")
    for spec in (
        GenSpec("grid", (3, 4)),
        GenSpec("wheel_sum", (11, 300), seed=17),
    ):
        assert set(spec.slug()) <= ok, spec.slug()
    assert GenSpec("grid", (3, 4)).slug() == "grid-3x4-s0"


def test_generate_repeatable():
    spec = GenSpec("crossed_grid", (3, 4, 3), seed=6)
    g1, e1 = generate(spec)
    g2, e2 = generate(spec)
    assert g1 == g2
    assert dump_embedding(e1) == dump_embedding(e2)


def test_write_corpus(tmp_path):
    specs = [
        GenSpec("grid", (3, 3)),
        GenSpec("wheel_sum", (11, 23), seed=2),
    ]
    manifest = write_corpus(specs, str(tmp_path))
    assert len(manifest["entries"]) == 2
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == manifest
    for entry in manifest["entries"]:
        for fname, digest in entry["sha256"].items():
            data = (tmp_path / fname).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        g = parse_edge_list((tmp_path / entry["files"]["graph"]).read_text())
        assert len(g.vertices) > 0
        e = parse_embedding((tmp_path / entry["files"]["drawing"]).read_text())
        assert sorted(e.true_vertices()) == list(g.vertices)
    # second run reproduces every checksum
    again = write_corpus(specs, str(tmp_path))
    assert again == manifest


def test_golden_crossed_and_padded_drawings(tmp_path):
    """sha256 over the edge list and drawing of crossed grids and padded
    wheel sums at seeds 0-2, the run-out-of-room error, and a manifest of
    all four families: any change to a draw or a face order shows here."""
    h = hashlib.sha256()
    for family, params in [
        ("crossed_grid", (4, 4, 3)),
        ("crossed_grid", (8, 8, 12)),
        ("crossed_grid", (24, 24, 70)),
        ("crossed_grid", (5, 7, 9)),
        ("wheel_sum", (11, 12)),
        ("wheel_sum", (11, 60)),
        ("wheel_sum", (12, 240)),
        ("wheel_sum", (12, 500)),
    ]:
        for seed in range(3):
            g, e = generate(GenSpec(family, params, seed))
            h.update((dump_edge_list(g) + dump_embedding(e)).encode())
    _, base = gen_toroidal_grid(3, 3)
    for seed in range(3):
        with pytest.raises(GenError) as exc_info:
            gen_crossed(base, 10, seed)
        h.update(f"{exc_info.value} {exc_info.value.achieved}\n".encode())
    specs = [
        GenSpec("grid", (3, 4)),
        GenSpec("planar_triangulation", (9,), seed=2),
        GenSpec("crossed_grid", (4, 5, 6), seed=1),
        GenSpec("wheel_sum", (11, 40), seed=3),
    ]
    h.update(json.dumps(write_corpus(specs, str(tmp_path)), sort_keys=True).encode())
    assert h.hexdigest()[:16] == "6278a31f740fc7fb"

"""The golden neighbourhood catalog: every drawing must settle its focal
element at exactly zero under the default rules, receipt for receipt."""
from __future__ import annotations

import hashlib
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from totalcolor.configs import (
    CONFIGS,
    ConfigError,
    LocalConfig,
    all_configs,
    assemble,
    get_config,
    verify_config,
)
import totalcolor.discharge as discharge_module
from totalcolor.discharge import discharge
from totalcolor.embedding import EmbeddedGraph, EmbedError, dump_embedding

from helpers import GRID_BESIDE_A_SPHERE


def test_catalog_size():
    cfgs = all_configs()
    assert len(cfgs) == 26
    assert len({c.name for c in cfgs}) == len(cfgs)
    golden = [c for c in cfgs if c.golden]
    assert len(golden) >= 10  # the worked-case floor
    assert len(golden) == 25


def test_catalog_drawings_are_pinned():
    # from_face_cycles numbers darts in listing order, so this pins every
    # face's orientation and position in its entry, not just the reports
    dumps = "".join(dump_embedding(c.build().star) for c in all_configs())
    assert hashlib.sha256(dumps.encode()).hexdigest() == (
        "54665924b078e5cea40dd9f0560737c4ce5d890a379c7cd6b71be8785c4af583"
    )


def test_each_config_builds_one_drawing(monkeypatch):
    init = EmbeddedGraph.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EmbeddedGraph, "__init__", counted)
    for c in all_configs():
        c.build()
    assert len(calls) == len(all_configs()) == 26


def test_every_field_varies_across_the_catalog():
    # a value every entry shares is a convention of the catalog (like
    # LocalConfig.focal), not a fact each entry should restate
    for f in fields(LocalConfig):
        assert len({getattr(c, f.name) for c in all_configs()}) >= 2, f.name


def test_get_config_round_trip():
    for c in all_configs():
        assert get_config(c.name) is c
    with pytest.raises(ConfigError, match="unknown config"):
        get_config("no-such-drawing")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_settles(name):
    cfg = get_config(name)
    rep = verify_config(cfg)
    assert rep["receipts_match"], (rep["receipts"], rep["expected"])
    assert rep["conserved"]
    assert rep["focal_sent"] == 0
    if cfg.golden:
        assert rep["zero"], rep["final"]
    else:
        assert not rep["zero"]


def test_a_config_with_a_wrong_initial_charge_is_not_conserved(monkeypatch):
    initial_charges = discharge_module.initial_charges

    def raised(a):
        charges = initial_charges(a)
        charges[0] += 1
        return charges

    monkeypatch.setattr(discharge_module, "initial_charges", raised)
    rep = verify_config(get_config("fan-run"))
    assert rep["ledger"].conserved_total() == rep["ledger"].initial_total() == -11
    assert rep["conserved"] is False


def test_the_guard_demo_deficit_is_frozen():
    rep = verify_config(get_config("guard-stop"))
    assert rep["final"] == Fraction(-2, 3)
    skipped = [(t.rule, t.source, t.target) for t in rep["ledger"].skipped]
    assert skipped == [("rx-triangles-mid", 3, 0)]


def test_goldens_never_lean_on_the_guard():
    # the crossing guard may quiet support noise, but a golden balance must
    # not depend on rerouting anything to or from the focal element
    for cfg in all_configs():
        if not cfg.golden:
            continue
        led = discharge(cfg.build())
        assert all(
            t.source != cfg.focal and t.target != cfg.focal for t in led.skipped
        ), cfg.name


def test_focal_positions_are_plausible():
    # every focal is the vertex the drawing names 0 and appears in a face
    for cfg in all_configs():
        assert cfg.focal == 0
        assert any(0 in f for f in cfg.faces)


def test_catalog_rebuilds_are_stable():
    cfg = get_config("double-fan")
    r1 = verify_config(cfg)
    r2 = verify_config(cfg)
    assert r1["receipts"] == r2["receipts"]
    t1 = [(t.rule, t.source, t.target, t.amount) for t in r1["ledger"].transfers]
    t2 = [(t.rule, t.source, t.target, t.amount) for t in r2["ledger"].transfers]
    assert t1 == t2


def test_assemble_rejects_ambiguous_new_pairs():
    faces = [[0, 1, 2], [0, 2, 3]]
    with pytest.raises(EmbedError, match="new pair"):
        assemble(faces, new_pairs=((0, 4),))


def test_assemble_rejects_a_true_vertex_on_new_segments_only():
    # every segment at the hub 3 is new, so no original edge reaches it
    with pytest.raises(ConfigError, match="true vertices differ from the reconstructed graph"):
        assemble([(0, 1, 3), (1, 2, 3), (2, 0, 3)], new_pairs=((0, 3), (1, 3), (2, 3)))


def test_assemble_rejects_a_drawing_off_its_surface():
    # closed, these two triangles are a plane drawing (V-E+F = 2); called
    # a torus they once discharged to a conserved -12 total
    with pytest.raises(EmbedError, match="not 2-cell for declared surface torus"):
        assemble([(0, 1, 2), (0, 2, 3)], surface="torus")


def test_assemble_rejects_a_disconnected_drawing():
    with pytest.raises(EmbedError, match="the drawing has 2 connected components"):
        assemble(GRID_BESIDE_A_SPHERE)


def test_assemble_marks_new_segments():
    cfg = get_config("cross-alternating")
    a = cfg.build()
    assert a.new_edge_count() == len(cfg.new_pairs) == 1
    star = a.star
    news = [
        {star.owner[k[0]], star.owner[k[1]]}
        for k, o in star.segment_origin.items()
        if o is None
    ]
    assert news == [{1, 4}]


def test_assemble_validates_the_new_pairs_origins():
    # 3 is a crossing of alternating-quads, so its segment to 0 must keep
    # the origin edge it interleaves; the constructor sees the final origins
    cfg = get_config("alternating-quads")
    assert 3 in cfg.crossings
    bad = replace(cfg, new_pairs=cfg.new_pairs + ((3, 0),))
    with pytest.raises(EmbedError, match="segment at crossing 3 lacks an origin edge"):
        bad.build()

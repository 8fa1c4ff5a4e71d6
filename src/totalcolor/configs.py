"""Golden local configurations.

Each entry realizes one tight spot from the case analysis as a concrete
little embedded graph: a focal vertex whose initial charge is negative,
wrapped in exactly the face/kind pattern that the redistribution rules
must rescue.  Running the full pipeline on the drawing must bring the
focal vertex to exactly zero, via exactly the expected transfers.

Drawings are given as interior face cycles; `close_drawing` derives the
outer boundary automatically, and `assemble` builds the closed drawing
with the one drawing builder, `embedding.from_face_cycles`, the entry's
`new_pairs` segments origin-less.  Every drawing names its focal vertex 0
(`LocalConfig.focal`).  High-degree "anchor" vertices (the senders,
degree >= 6) get their degree from petal fans in the outer region; where
needed, a degree-8 mast fixes the table's degree threshold.  Most entries
splice in the shared one, `_mast(a, b)`; pool-pair and five-wheel fan out
a vertex of their own.  The focal arithmetic only ever uses the focal
vertex's receipts, so the support is free to be charge-imbalanced.
"""
from __future__ import annotations

from dataclasses import dataclass

from .augment import AugmentedGraph
from .discharge import discharge
from .embedding import SURFACES, from_face_cycles
from .graphs import build_graph


class ConfigError(ValueError):
    pass


def close_drawing(faces):
    """Append the missing boundary cycles to a list of interior faces.

    Every directed side may be used at most once; a side whose reverse is
    unused lies on the boundary.  Each vertex may have at most one boundary
    gap, which makes the completion unique.
    """
    used = set()
    for f in faces:
        k = len(f)
        for i in range(k):
            s = (f[i], f[(i + 1) % k])
            if s in used:
                raise ConfigError(f"side {s} used twice")
            used.add(s)
    missing = [(b, a) for (a, b) in used if (b, a) not in used]
    nxt = {}
    for a, b in missing:
        if a in nxt:
            raise ConfigError(f"vertex {a} has two boundary gaps")
        nxt[a] = b
    cycles = []
    remaining = set(missing)
    while remaining:
        start = min(remaining)
        cyc = []
        cur = start
        while True:
            cyc.append(cur[0])
            remaining.discard(cur)
            cur = (cur[1], nxt[cur[1]])
            if cur == start:
                break
        cycles.append(tuple(cyc))
    return [tuple(f) for f in faces] + cycles


def assemble(faces, crossings=(), new_pairs=(), surface="plane") -> AugmentedGraph:
    """Close the drawing, build it with the one drawing builder,
    embedding.from_face_cycles (its new pairs' segments origin-less), and
    wrap it with its underlying simple graph as an augmented graph."""
    emb = from_face_cycles(close_drawing(faces), surface, crossings, new_pairs)
    g = build_graph({o for o in emb.segment_origin.values() if o is not None})
    if set(emb.true_vertices()) != set(g.vertices):
        raise ConfigError("true vertices differ from the reconstructed graph")
    return AugmentedGraph(g=g, base=emb, star=emb, insertions=[])


@dataclass(frozen=True)
class LocalConfig:
    # the catalog's convention: every drawing names its focal vertex 0
    focal = 0
    name: str
    description: str
    faces: tuple
    crossings: tuple = ()
    new_pairs: tuple = ()
    # sorted (rule, amount-string) pairs expected to arrive at the focal vertex
    expect: tuple = ()
    # golden configs must end at exactly zero; non-golden ones are
    # demonstrations (e.g. of the crossing guard) with a frozen deficit
    golden: bool = True

    def build(self) -> AugmentedGraph:
        return assemble(self.faces, self.crossings, self.new_pairs)


def verify_config(cfg: LocalConfig) -> dict:
    """Build, discharge, and compare against the frozen expectation.
    Returns a report dict; callers assert on its fields."""
    a = cfg.build()
    ledger = discharge(a)
    got = sorted((t.rule, str(t.amount)) for t in ledger.transfers if t.target == cfg.focal)
    sent = [t for t in ledger.transfers if t.source == cfg.focal]
    final = ledger.final()[cfg.focal]
    total = ledger.conserved_total()
    expected = sorted(cfg.expect)
    return {
        "name": cfg.name,
        "final": final,
        "zero": final == 0,
        "receipts": got,
        "expected": expected,
        "receipts_match": got == expected,
        "focal_sent": len(sent),
        "conserved": total == ledger.initial_total() == -6 * SURFACES[a.star.surface],
        "ledger": ledger,
    }


# ---------------------------------------------------------------------------
# The catalog.  Mnemonics inside each drawing:
#   0 = focal vertex, single digits = its direct neighborhood,
#   20-29 = far ends / big-face companions, 30+ = petals and mast support.

CONFIGS = {}


def _add(cfg: LocalConfig):
    if cfg.name in CONFIGS:
        raise ConfigError(f"duplicate config {cfg.name}")
    CONFIGS[cfg.name] = cfg


def _mast(a, b):
    """The degree-8 mast: vertex 50 hung off the side (a, b) and fanned out
    through petals 40-45, so that delta is 8 and the senders' `delta-2`
    threshold stays out of reach of the small core vertices."""
    return ((a, b, 50), (40, 50, b), *((p + 1, 50, p) for p in range(40, 45)))


# --- trivial rescues: R1 alone, R3 alone -----------------------------------

# A 3-vertex that picked up two new edges: degree 5 around it, rescued
# purely by the pool payment.
_add(LocalConfig(
    name="pool-pair",
    description="degree-3 original vertex with two new edges; the pool's "
                "unit payment alone restores it to zero",
    faces=(
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5),
        (0, 5, 6, 1),
        # mast: vertex 6 raised to degree 8
        (1, 6, 30), (30, 6, 31), (31, 6, 32), (32, 6, 33),
        (33, 6, 34), (34, 6, 35),
    ),
    new_pairs=((0, 2), (0, 5)),
    expect=(("R1", "1"),),
))

# A small (5,5) vertex wrapped in five 3-faces: collects 1/3 from each of
# its three original-vertex neighbors.
_add(LocalConfig(
    name="five-wheel",
    description="small (5,5) vertex with five 3-faces and three "
                "original-vertex neighbors; collects 1/3 from each",
    faces=(
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
        (4, 3, 20), (4, 20, 21), (1, 5, 22),
        # mast: vertex 21 raised to degree 8, keeping the table's degree
        # threshold out of reach of the small core vertices
        (4, 21, 30), (30, 21, 31), (31, 21, 32), (32, 21, 33),
        (33, 21, 34), (34, 21, 35),
    ),
    crossings=(3, 5),
    expect=(("R3", "1/3"), ("R3", "1/3"), ("R3", "1/3")),
))

# --- (3,3) vertices ---------------------------------------------------------

# Two 4-faces and one 3-face around a plain 3-vertex; one 4-face holds two
# anchors and pays 1, the other pays 2/3, the triangle's anchor tops up 1/3.
_add(LocalConfig(
    name="quad-quad-triangle",
    description="(3,3) vertex: 3-face plus two 4-faces; pool pays 1, the "
                "richer 4-face pays 1, the other 2/3, one neighbor 1/3",
    faces=(
        (0, 1, 2), (0, 2, 4, 3), (0, 3, 5, 1),
        (4, 2, 6), (7, 3, 4),
        (8, 1, 5), (9, 1, 8), (10, 1, 9),
        (8, 5, 11), (11, 5, 12), (12, 5, 13),
        (7, 4, 14), (14, 4, 15),
    ),
    crossings=(2, 3),
    expect=(("R1", "1"), ("R2", "1"), ("R2", "2/3"), ("r33-two-quads", "1/3")),
))

# One big 5-face opposite the only original neighbor, which pays 2/3.
_add(LocalConfig(
    name="pentagon-opposite",
    description="(3,3) vertex: two 3-faces flanking its original neighbor "
                "and a 5-face opposite; 1 + 4/3 + 2/3 rescues it",
    faces=(
        (0, 1, 2), (0, 3, 1), (0, 2, 20, 21, 3),
        (20, 2, 6), (6, 2, 1), (22, 3, 21), (1, 3, 22),
        (6, 1, 8), (8, 1, 9),
        (20, 6, 30), (30, 6, 31),
        (21, 20, 32), (32, 20, 33), (33, 20, 34),
        (22, 21, 35), (35, 21, 36),
    ),
    crossings=(2, 3),
    expect=(("R1", "1"), ("R2", "4/3"), ("r33-big-opposite", "2/3")),
))


# --- (3,4) vertices: one new edge ------------------------------------------

# The new edge leans on a 4-face that carries one anchor; the anchor across
# the triangles pays 1/3.
_add(LocalConfig(
    name="new-edge-quad",
    description="(3,4) vertex whose new edge touches a one-anchor 4-face; "
                "pool 1, quad 2/3, plus 1/3 across the triangle fan",
    faces=(
        (0, 1, 2), (0, 2, 3), (0, 3, 21, 4), (0, 4, 1),
        (30, 1, 4), (31, 1, 30), (32, 1, 31),
        (4, 21, 33), (33, 21, 34), (34, 21, 35), (35, 21, 36),
    ),
    new_pairs=((0, 3),),
    expect=(("R1", "1"), ("R2", "2/3"), ("r34-new-quad", "1/3")),
))

# The new edge sits between two 3-faces instead; away from the new edge the
# 4-face's flanks must both be crossings, so the quad pays 2/3 and the
# neighbor wedged between the new and the old triangle tops up 1/3.
_add(LocalConfig(
    name="new-edge-triangles",
    description="(3,4) vertex whose new edge is wedged between two "
                "3-faces; the old 4-face (crossing flanks) pays 2/3, "
                "one neighbor 1/3",
    faces=(
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 21, 1),
        (2, 1, 33), (21, 4, 34),
        (30, 2, 33), (31, 2, 30), (32, 2, 31),
        (35, 21, 34), (36, 21, 35), (37, 21, 36),
    ),
    crossings=(1, 4),
    new_pairs=((0, 3),),
    expect=(("R1", "1"), ("R2", "2/3"), ("r34-new-triangles", "1/3")),
))

# --- (4,4) vertices: no new edges, mixed quads ------------------------------

# Alternating 4,3,4,3 around the vertex; both true neighbors chip in 1/6,
# the two quads pay 1 and 2/3.
_add(LocalConfig(
    name="alternating-quads",
    description="(4,4) vertex with faces 4,3,4,3 and two crossing "
                "neighbors; quads pay 1 + 2/3, both true neighbors 1/6",
    faces=(
        (0, 1, 21, 2), (0, 2, 3), (0, 3, 22, 4), (0, 4, 1),
        (22, 3, 5), (1, 4, 6),
        (21, 1, 30), (30, 1, 31),
        (32, 2, 21), (33, 2, 32), (34, 2, 33),
        (36, 22, 5), (37, 22, 36), (38, 22, 37),
        *_mast(30, 31),
    ),
    crossings=(3, 4),
    expect=(("R2", "1"), ("R2", "2/3"),
            ("r44-alternating", "1/6"), ("r44-alternating", "1/6")),
))

# Three crossing neighbors, faces 3,4,4,3 seen from the lone true neighbor,
# which pays 2/3 on top of the two quads' 2/3 each.
_add(LocalConfig(
    name="triple-crossing",
    description="(4,4) vertex with three crossing neighbors; each quad "
                "pays 2/3 and the single true neighbor pays 2/3",
    faces=(
        (0, 1, 2), (0, 2, 21, 3), (0, 3, 22, 4), (0, 4, 1),
        (21, 2, 5), (22, 3, 6), (1, 4, 7),
        (30, 1, 7), (31, 1, 30),
        (32, 21, 5), (33, 21, 32), (34, 21, 33),
        (35, 22, 6), (36, 22, 35), (37, 22, 36),
        *_mast(1, 31),
    ),
    crossings=(2, 3, 4),
    expect=(("R2", "2/3"), ("R2", "2/3"), ("r44-three-crossings", "2/3")),
))

# Two crossing neighbors this time; the rate drops to 1/3 and one quad
# carries two anchors, paying a full 1.
_add(LocalConfig(
    name="double-crossing",
    description="(4,4) vertex with two crossing neighbors; quads pay "
                "1 and 2/3, the true neighbor tops up 1/3",
    faces=(
        (0, 1, 2), (0, 2, 21, 3), (0, 3, 22, 4), (0, 4, 1),
        (21, 2, 5), (22, 3, 6),
        (30, 1, 4), (31, 1, 30), (32, 1, 31),
        (30, 4, 33), (33, 4, 34),
        (35, 21, 5), (36, 21, 35), (37, 21, 36),
        (38, 22, 6), (39, 22, 38), (29, 22, 39),
        *_mast(1, 32),
    ),
    crossings=(2, 3),
    expect=(("R2", "1"), ("R2", "2/3"), ("r44-two-crossings", "1/3")),
))

# Three 3-faces and one big face; with both middle neighbors true, the
# 4-face's flanks are forced to be crossings, and the face plus both
# anchors behind the triangle run pay 2/3 each.
_add(LocalConfig(
    name="triangle-run",
    description="(4,4) vertex behind three 3-faces and a 4-face whose "
                "flanks are crossings; the face and two anchors pay "
                "2/3 each",
    faces=(
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 21, 1),
        (2, 1, 33), (21, 4, 34),
        (30, 2, 33), (31, 2, 30), (32, 2, 31),
        (3, 2, 40), (41, 3, 40), (42, 3, 41),
        (35, 21, 34), (36, 21, 35), (37, 21, 36),
    ),
    crossings=(1, 4),
    expect=(("R2", "2/3"),
            ("r44-triple-triangle", "2/3"), ("r44-triple-triangle", "2/3")),
))

# Same face shape but the exact-4 face holds two anchors: it pays 1, one
# anchor behind the triangles pays 2/3, the flank anchor pays 1/3.
_add(LocalConfig(
    name="triangle-run-flank",
    description="(4,4) vertex, three 3-faces and a two-anchor 4-face; "
                "receives 1 + 2/3 + 1/3 from face, run and flank",
    faces=(
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 21, 1),
        (2, 1, 30), (30, 1, 31), (31, 1, 32),
        (4, 3, 33), (33, 3, 34), (34, 3, 35),
        (36, 21, 4), (37, 21, 36), (38, 21, 37), (39, 21, 38),
        *_mast(34, 35),
    ),
    expect=(("R2", "1"),
            ("r44-one-quad-flank", "1/3"), ("r44-triple-triangle", "2/3")),
))

# --- crossing vertices: no new edges ----------------------------------------

# Both 4-faces around the crossing hold one anchor each; the anchor wedged
# between the two 3-faces pays 2/3 across the crossing.
_add(LocalConfig(
    name="twin-anchors",
    description="crossing between two one-anchor 4-faces; each quad pays "
                "2/3 and the anchor between the triangles pays 2/3",
    faces=(
        (0, 1, 2), (0, 2, 21, 3), (0, 3, 22, 4), (0, 4, 1),
        (30, 1, 4), (31, 1, 30), (32, 1, 31),
        (21, 2, 33), (33, 2, 34), (34, 2, 35),
        (30, 4, 36), (36, 4, 37),
        *_mast(1, 32),
    ),
    crossings=(0,),
    expect=(("R2", "2/3"), ("R2", "2/3"), ("rx-twin-bigs", "2/3")),
))

# One 4-face holds two anchors (pays 1), the other one (pays 2/3); the
# anchor flanked by its own quad pays 1/3 across.
_add(LocalConfig(
    name="quad-split",
    description="crossing with a two-anchor quad and a one-anchor quad; "
                "faces pay 1 + 2/3, the quad-flanked anchor pays 1/3",
    faces=(
        (0, 1, 2), (0, 2, 21, 3), (0, 3, 22, 4), (0, 4, 1),
        (21, 2, 33), (33, 2, 34), (34, 2, 35),
        (22, 3, 36), (36, 3, 37), (37, 3, 38),
        *_mast(34, 35),
    ),
    crossings=(0,),
    expect=(("R2", "1"), ("R2", "2/3"), ("rx-quad-flank", "1/3")),
))

# Quads and triangles alternate around the crossing (one triangle carries a
# new edge); both anchors sit between the quads and pay 1/3 each.
_add(LocalConfig(
    name="cross-alternating",
    description="crossing with alternating 3- and 4-faces; both quads pay "
                "2/3 and both anchors pay 1/3 across the crossing",
    faces=(
        (0, 1, 23, 2), (0, 2, 3), (0, 3, 22, 4), (0, 4, 1),
        (30, 2, 23), (31, 2, 30), (32, 2, 31),
        (22, 3, 33), (33, 3, 34), (34, 3, 35),
        *_mast(34, 35),
    ),
    crossings=(0,),
    new_pairs=((1, 4),),
    expect=(("R2", "2/3"), ("R2", "2/3"),
            ("rx-alternating", "1/3"), ("rx-alternating", "1/3")),
))

# Same alternating shape, but the vertex across from two of the anchors is
# itself an anchor, so only one 1/3 payment survives; the richer quad's
# second anchor makes up the difference with a full 1.
_add(LocalConfig(
    name="cross-shielded",
    description="alternating crossing where two anchors face each other "
                "and stay silent; 1 + 2/3 from the quads plus one 1/3",
    faces=(
        (0, 1, 23, 2), (0, 2, 3), (0, 3, 22, 4), (0, 4, 1),
        (30, 1, 4), (31, 1, 30), (32, 1, 31),
        (33, 2, 23), (34, 2, 33), (35, 2, 34),
        (22, 3, 36), (36, 3, 37), (37, 3, 38),
        *_mast(37, 38),
    ),
    crossings=(0,),
    expect=(("R2", "1"), ("R2", "2/3"), ("rx-alternating", "1/3")),
))


# --- crossing vertices: a new edge in the mix --------------------------------

# A degree-6 center whose two flanking crossings each lean on a big face and
# a new-edge triangle: the center and the far anchor each pay 1/2 to the
# crossing, whose shared 4-face pays the remaining 1.  The center's sends,
# read in rotation order, are 0,1/2,1/2,1/2,1/2,0 -- the extremal fan.
_add(LocalConfig(
    name="fan-run",
    description="crossing beside a minimum-degree center: 4-face pays 1, "
                "center and opposite anchor pay 1/2 each",
    faces=(
        (0, 1, 5, 2), (0, 3, 1), (0, 4, 3), (0, 2, 4),
        (1, 3, 7), (1, 7, 6), (1, 6, 8, 11),
        (3, 4, 10), (3, 10, 7),
        (9, 6, 7), (7, 10, 9), (8, 6, 9),
        (30, 2, 5), (31, 2, 30), (32, 2, 31),
        (11, 8, 33), (33, 8, 34), (34, 8, 35),
        *_mast(34, 35),
    ),
    crossings=(0, 6),
    new_pairs=((3, 4), (7, 9)),
    expect=(("R2", "1"), ("rx-inner-new", "1/2"), ("rx-inner-new", "1/2")),
))

# The crossing's 4-face holds two anchors and pays a full 1; the anchor
# behind the old triangles pays 2/3 and the one behind the new triangle 1/3.
_add(LocalConfig(
    name="cross-new-rich",
    description="crossing with a new-edge triangle against a two-anchor "
                "4-face; 1 + 2/3 + 1/3 from face and both anchors",
    faces=(
        (0, 1, 23, 4), (0, 2, 1), (0, 3, 2), (0, 4, 3),
        (2, 3, 30), (30, 3, 31), (31, 3, 32),
        (3, 4, 33), (33, 4, 34), (34, 4, 35),
        (4, 23, 36), (36, 23, 37), (37, 23, 38), (38, 23, 39),
        *_mast(34, 35),
    ),
    crossings=(0,),
    new_pairs=((1, 2),),
    expect=(("R2", "1"), ("rx-new-far-big", "2/3"), ("rx-new-rich-big", "1/3")),
))

# Same shape with a one-anchor 4-face: it only pays 2/3, and the anchor next
# to it raises its contribution to 2/3 to compensate.
_add(LocalConfig(
    name="cross-new-lone",
    description="crossing with a new-edge triangle against a one-anchor "
                "4-face; the face and both anchors pay 2/3 each",
    faces=(
        (0, 1, 23, 4), (0, 2, 1), (0, 3, 2), (0, 4, 3),
        (2, 3, 30), (30, 3, 31), (31, 3, 32),
        (3, 4, 33), (33, 4, 34), (34, 4, 35),
        *_mast(34, 35),
    ),
    crossings=(0,),
    new_pairs=((1, 2),),
    expect=(("R2", "2/3"), ("rx-new-far-big", "2/3"), ("rx-new-lone-big", "2/3")),
))

# Three 3-faces in a row plus a two-anchor quad: the quad pays 1, the
# mid-run anchor and the two run-end anchors pay 1/3 each.
_add(LocalConfig(
    name="triangle-shield",
    description="crossing behind a triangle run and a two-anchor 4-face; "
                "1 from the face and 1/3 from three anchors",
    faces=(
        (0, 1, 23, 4), (0, 2, 1), (0, 3, 2), (0, 4, 3),
        (30, 1, 2), (31, 1, 30), (32, 1, 31),
        (2, 3, 33), (33, 3, 34), (34, 3, 35),
        (3, 4, 36), (36, 4, 37), (37, 4, 38),
        *_mast(37, 38),
    ),
    crossings=(0,),
    expect=(("R2", "1"), ("rx-triangles-mid", "1/3"),
            ("rx-triangles-side", "1/3"), ("rx-triangles-side", "1/3")),
))

# NOT a golden zero: the same triangle run, but the run's far corner vertex
# is small and leans on the big face, which triggers the crossing guard.
# The mid-run anchor's 1/3 is rerouted to the skipped list and the focal
# crossing settles at -2/3.  Kept as the guard's working demonstration.
_add(LocalConfig(
    name="guard-stop",
    description="triangle run whose mid anchor is silenced by the crossing "
                "guard; the focal crossing keeps a -2/3 deficit",
    faces=(
        (0, 1, 23, 4), (0, 2, 1), (0, 3, 2), (0, 4, 3),
        (30, 1, 2), (31, 1, 30), (32, 1, 31),
        (2, 3, 33), (33, 3, 34), (34, 3, 35),
        (4, 23, 36), (36, 23, 37), (37, 23, 38), (38, 23, 39),
        *_mast(38, 39),
    ),
    crossings=(0,),
    expect=(("R2", "1"), ("rx-triangles-side", "1/3")),
    golden=False,
))


# --- (4,5) vertices: one new edge, five faces --------------------------------

# The new edge splits the wheel into two new triangles far from the quad;
# both anchors flanking the new edge pay 1/6.
_add(LocalConfig(
    name="calm-quad",
    description="(4,5) vertex, new edge opposite a one-anchor 4-face; the "
                "quad pays 2/3 and the flanking anchors pay 1/6 each",
    faces=(
        (0, 2, 1), (0, 3, 2), (0, 4, 20, 3), (0, 5, 4), (0, 1, 5),
        (2, 3, 21), (20, 4, 22),
        (1, 2, 30), (30, 2, 31),
        (32, 5, 1), (33, 5, 32), (34, 5, 33),
        (35, 20, 22), (36, 20, 35), (37, 20, 36),
        *_mast(30, 31),
    ),
    crossings=(3, 4),
    new_pairs=((0, 1),),
    expect=(("R2", "2/3"), ("r5-quad-calm", "1/6"), ("r5-quad-calm", "1/6")),
))

# The new edge sits one face over from the quad; only the anchor behind the
# old triangles still pays, now 1/3.
_add(LocalConfig(
    name="shifted-quad",
    description="(4,5) vertex, new edge one step from the 4-face; quad "
                "pays 2/3 and the anchor behind the old faces pays 1/3",
    faces=(
        (0, 1, 5), (0, 2, 1), (0, 3, 2), (0, 4, 20, 3), (0, 5, 4),
        (2, 3, 21), (20, 4, 22),
        (32, 5, 1), (33, 5, 32), (34, 5, 33),
        (35, 20, 22), (36, 20, 35), (37, 20, 36),
        *_mast(5, 34),
    ),
    crossings=(3, 4),
    new_pairs=((0, 2),),
    expect=(("R2", "2/3"), ("r5-quad-shifted-new", "1/3")),
))

# The new edge runs straight into the 4-face; the anchor one step away on
# the near side pays 1/3.
_add(LocalConfig(
    name="near-new-quad",
    description="(4,5) vertex whose new edge borders the 4-face; the quad "
                "pays 2/3 and the near-side anchor pays 1/3",
    faces=(
        (0, 1, 5), (0, 2, 1), (0, 3, 2), (0, 4, 20, 3), (0, 5, 4),
        (4, 5, 23),
        (30, 1, 2), (31, 1, 30), (32, 1, 31),
        (3, 20, 33), (33, 20, 34), (34, 20, 35), (35, 20, 36),
        *_mast(1, 32),
    ),
    crossings=(5,),
    new_pairs=((0, 3),),
    expect=(("R2", "2/3"), ("r5-new-quad-near", "1/3")),
))

# Mirror image of the previous: the paying anchor sits on the far side of
# the quad instead.
_add(LocalConfig(
    name="far-new-quad",
    description="(4,5) vertex whose new edge borders the 4-face; the quad "
                "pays 2/3 and the far-side anchor pays 1/3",
    faces=(
        (0, 1, 5), (0, 2, 1), (0, 3, 2), (0, 4, 20, 3), (0, 5, 4),
        (5, 1, 23),
        (30, 5, 23), (31, 5, 30),
        (3, 20, 33), (33, 20, 34), (34, 20, 35), (35, 20, 36),
        *_mast(5, 31),
    ),
    crossings=(1,),
    new_pairs=((0, 3),),
    expect=(("R2", "2/3"), ("r5-new-quad-far", "1/3")),
))

# All five faces are triangles and the two middle anchors share their own
# new edge, bridging the fan; each pays 1/2.
_add(LocalConfig(
    name="double-fan",
    description="(4,5) vertex in a full triangle fan whose middle anchors "
                "are bridged by a second new edge; both pay 1/2",
    faces=(
        (0, 1, 5), (0, 2, 1), (0, 3, 2), (0, 4, 3), (0, 5, 4),
        (1, 2, 21), (4, 5, 22),
        (30, 3, 4), (30, 4, 33), (33, 4, 34),
        (31, 3, 30), (32, 3, 31), (35, 3, 32),
        *_mast(3, 35),
    ),
    crossings=(2, 5),
    new_pairs=((0, 1), (3, 4)),
    expect=(("r5-fan-bridged", "1/2"), ("r5-fan-bridged", "1/2")),
))

# Full triangle fan again, but the two anchors sit on opposite sides of a
# crossing; one matches the mid pattern, the other the far pattern.
_add(LocalConfig(
    name="split-fan",
    description="(4,5) vertex in a full triangle fan with anchors split "
                "around a crossing; mid and far patterns pay 1/2 each",
    faces=(
        (0, 1, 5), (0, 2, 1), (0, 3, 2), (0, 4, 3), (0, 5, 4),
        (2, 3, 21), (4, 5, 22),
        (1, 2, 30), (30, 2, 31),
        (33, 4, 22), (34, 4, 33),
        *_mast(30, 31),
    ),
    crossings=(3, 5),
    new_pairs=((0, 1),),
    expect=(("r5-fan-far", "1/2"), ("r5-fan-mid", "1/2")),
))


def all_configs():
    return [CONFIGS[k] for k in sorted(CONFIGS)]


def get_config(name: str) -> LocalConfig:
    if name not in CONFIGS:
        raise ConfigError(f"unknown config {name!r}")
    return CONFIGS[name]

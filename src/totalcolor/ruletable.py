"""Configurable local discharging rules.

The per-shape transfer rules are data, not code: a rule names a sender
pattern, a receiver pattern, and an exact amount from the menu
{1/6, 1/3, 1/2, 2/3}.  The shipped default table transcribes every
vertex-to-vertex transfer amount stated in the case analysis; users may
load replacement tables from JSON.

Receiver patterns center on the *anchored face view*: going around the
receiver's rotation, corner i is the face wedged between its darts i-1 and
i, and the edge at dart i is flanked by corners i and i+1.  A rule's
`faces` list is matched cyclically starting just after the connecting edge
(so the first and last tokens flank that edge), in either orientation.

Face tokens: an int is an exact size, "k+" a lower bound, and a dict may
pin `size` (int or "k+"), `new_edge` (boundary contains a new edge),
`min_bigs`/`max_bigs` (big-vertex occurrences on the boundary), and
`min_share` (the face's redistribution share is at least this fraction).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache

from .augment import AugmentedGraph
from .embedding import CROSSING, TRUE, dart_face_index

AMOUNT_MENU = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


class RuleError(ValueError):
    """Malformed rule table, or two rules firing on one ordered pair."""


def share_terms(size: int, smalls: int) -> tuple:
    """A face's share per small occurrence, as (numerator, denominator)."""
    return 2 * size - 6, smalls


@dataclass(frozen=True)
class FaceToken:
    size: int | None = None
    min_size: int | None = None
    new_edge: bool | None = None
    min_bigs: int | None = None
    max_bigs: int | None = None
    min_share: Fraction | None = None

    def __post_init__(self):
        # tokens parsed and tokens built in code both pass here
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not _TOKEN_FIELDS[f.name](value):
                raise RuleError(f"bad {f.name} in face token: {value!r}")
        if self.min_share is not None:  # matches compares it exactly, as a Fraction
            object.__setattr__(self, "min_share", Fraction(self.min_share))

    def matches(self, view: tuple) -> bool:
        """Whether a face with view (size, new, bigs, smalls) passes; a face
        with no small occurrence passes any min_share."""
        size, new, bigs, smalls = view
        m = self.min_share
        num, den = share_terms(size, smalls)
        return (
            (self.size is None or size == self.size)
            and (self.min_size is None or size >= self.min_size)
            and (self.new_edge is None or new == self.new_edge)
            and (self.min_bigs is None or bigs >= self.min_bigs)
            and (self.max_bigs is None or bigs <= self.max_bigs)
            # num/den >= m over positive denominators, with no Fraction made
            and (m is None or not den or num * m.denominator >= m.numerator * den)
        )


@dataclass(frozen=True)
class EndPattern:
    kind: str | None = None
    d1: int | None = None
    d2: int | None = None
    size_class: str | None = None
    new_incident: bool | None = None
    min_degree: object = None  # int or "delta"/"delta-1"/"delta-2"
    via_new_edge: bool | None = None
    num_crossing_neighbors: int | None = None
    opposite_end_small: bool | None = None
    faces: tuple | None = None  # tuple[FaceToken], anchored at the connecting edge

    def __post_init__(self):
        # a faces entry built in code may be a size, read as the parser
        # reads one, or a FaceToken
        if self.faces is not None:
            if not _is_list(self.faces):
                raise RuleError(f"bad faces in end pattern: {self.faces!r}")
            tokens = tuple(t if isinstance(t, FaceToken) else _size_token(t) for t in self.faces)
            object.__setattr__(self, "faces", tokens)

    def admits(self, c) -> bool:
        """Whether VertexClass c has every class field this end pins."""
        return (
            (self.kind is None or c.kind == self.kind)
            and (self.d1 is None or c.d1 == self.d1)
            and (self.d2 is None or c.d2 == self.d2)
            and (self.size_class is None or c.size_class == self.size_class)
            and (self.new_incident is None or c.new_incident == self.new_incident)
        )

    def reads_corners(self, k: int) -> bool:
        """Whether this end reads the corners of a receiver with k darts: a
        faces pattern matches only when it is as long as the rotation."""
        return self.faces is not None and len(self.faces) == k


@dataclass(frozen=True)
class LocalRule:
    id: str
    sender: EndPattern
    receiver: EndPattern
    amount: Fraction

    def __post_init__(self):
        # tables parsed and tables built in code both pass here, so a bad
        # rule fails before any dart is examined
        try:
            object.__setattr__(self, "amount", Fraction(self.amount))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise RuleError(f"rule {self.id}: bad amount") from None
        if self.amount not in AMOUNT_MENU:
            raise RuleError(
                f"rule {self.id}: amount {self.amount} outside the menu "
                f"{[str(x) for x in AMOUNT_MENU]}"
            )
        for where, p in (("sender", self.sender), ("receiver", self.receiver)):
            stray = {f.name for f in fields(p) if getattr(p, f.name) is not None}
            stray -= _END_KEYS[where].keys()
            if stray:
                raise RuleError(f"unknown {where} pattern keys: {sorted(stray)}")
        if self.sender.min_degree is not None:
            resolve_threshold(self.sender.min_degree, 0)  # raises on a bad one


@dataclass
class RuleTable:
    rules: list = field(default_factory=list)
    exclusions: tuple = ()

    def __post_init__(self):
        ids = set()
        for rule in self.rules:
            if not isinstance(rule.id, str) or not rule.id or rule.id in ids:
                raise RuleError(f"missing or duplicate rule id {rule.id!r}")
            ids.add(rule.id)
        for i, name in enumerate(self.exclusions):
            if name != "guarded-crossing":
                raise RuleError(f"unknown exclusion {name!r}")
            if name in self.exclusions[:i]:
                raise RuleError(f"repeated exclusion {name!r}")


class _Corners(dict):
    """Corner i at v is the face between rotation darts i-1 and i, the
    face whose boundary holds dart i.  A vertex's corner list is made on
    its first read and kept."""

    __slots__ = ("rotations", "dart_face")

    def __init__(self, rotations, dart_face):
        super().__init__()
        self.rotations = rotations
        self.dart_face = dart_face

    def __missing__(self, v):
        dart_face = self.dart_face
        corners = self[v] = [dart_face[d] for d in self.rotations[v]]
        return corners


class MatchContext:
    """Precomputed per-G* data shared by all pattern evaluations.

    Cost: one pass over each face's dart tuple (its new-edge flag and big
    count; its size is the tuple's length), one dict entry per dart for
    its face, and one step per crossing dart.  A face's view
    (`face_view(fi)`) is read off these lists on demand, and a vertex's
    corner list (`corner[v]`) is made only when something reads it: R3's
    (5,5) candidates, rule-table receivers at darts that a sender side
    admits, in a class that reads corners, and guarded_crossing's
    receivers."""

    def __init__(self, a: AugmentedGraph):
        self.a = a
        star = a.star
        self.star = star
        self.faces = star.faces()
        dart_face = dart_face_index(self.faces)
        self.face_size = list(map(len, self.faces))
        new_darts = star.new_darts()
        self.face_new = [not new_darts.isdisjoint(f) for f in self.faces]
        # big occurrences per face, counted in C over one set of big vertices
        is_big = {v for v, c in a.classification.items() if c.size_class == "big"}.__contains__
        owner_of = star.owner.__getitem__
        self.face_bigs = [sum(map(is_big, map(owner_of, f))) for f in self.faces]
        self.face_smalls = [k - b for k, b in zip(self.face_size, self.face_bigs)]
        self.corner = _Corners(star.rotation, dart_face)
        # each dart at a crossing x is one neighbour slot, at its other end
        self.crossing_nbrs = dict.fromkeys(star.rotation, 0)
        for x, kind in star.vertex_kind.items():
            if kind == CROSSING:
                for d in star.rotation[x]:
                    self.crossing_nbrs[star.other_end(d)] += 1

    def face_share(self, fi: int) -> Fraction | None:
        """Per-small-occurrence redistribution share; None when the face has
        no small occurrences (nothing to receive, so every bound holds)."""
        num, den = share_terms(self.face_size[fi], self.face_smalls[fi])
        return Fraction(num, den) if den else None

    def face_view(self, fi: int) -> tuple:
        """What a face token reads of face fi: (size, new, bigs, smalls)."""
        return self.face_size[fi], self.face_new[fi], self.face_bigs[fi], self.face_smalls[fi]


_THRESHOLDS = {"delta": 0, "delta-1": 1, "delta-2": 2}


def resolve_threshold(value, delta: int) -> int:
    """A non-negative int as is, a _THRESHOLDS name counted down from delta."""
    if _is_count(value):
        return value
    if isinstance(value, str) and value in _THRESHOLDS:
        return delta - _THRESHOLDS[value]
    raise RuleError(f"bad degree threshold {value!r}")


def sender_matches(p: EndPattern, c, via_new: bool, min_degree) -> bool:
    """Whether a sender of VertexClass c, across a dart that is new or not,
    passes p; min_degree is p.min_degree resolved against the ledger's
    delta, or None."""
    if not p.admits(c):
        return False
    if min_degree is not None:
        # degree thresholds refer to the original graph for true vertices
        degree = c.d1 if c.kind == TRUE else c.d2
        if degree < min_degree:
            return False
    return p.via_new_edge is None or via_new == p.via_new_edge


def receiver_view(ctx: MatchContext, r, i: int, corners: bool) -> tuple:
    """What a receiver pattern reads at r's rotation dart i besides r's
    class: r's count of crossing neighbours; at a crossing the size class
    of the end opposite dart i, else None; and, when `corners`, the views
    of r's corners in forward order from corner i+1, else None."""
    star, cls = ctx.star, ctx.a.classification
    opposite = None
    if cls[r].kind == CROSSING:
        opposite = cls[star.other_end(star.rotation[r][(i + 2) % 4])].size_class
    faces = None
    if corners:
        cf = ctx.corner[r]
        faces = tuple(map(ctx.face_view, cf[i + 1:] + cf[:i + 1]))
    return ctx.crossing_nbrs[r], opposite, faces


def receiver_matches(p: EndPattern, c, view: tuple) -> bool:
    """Whether a receiver of VertexClass c passes p, given receiver_view at
    the connecting dart, with corners if p reads them; a faces pattern may
    match them forward or mirrored."""
    nbrs, opposite, corners = view
    if not p.admits(c):
        return False
    if p.num_crossing_neighbors is not None and nbrs != p.num_crossing_neighbors:
        return False
    if p.opposite_end_small is not None:
        if c.kind != CROSSING or (opposite == "small") != p.opposite_end_small:
            return False
    if p.faces is not None:
        if not p.reads_corners(c.d2):
            return False
        return any(all(map(FaceToken.matches, p.faces, v)) for v in (corners, corners[::-1]))
    return True


def guarded_crossing(ctx: MatchContext, s, r, r_dart: int) -> bool:
    """The transfer-suppression pattern: receiver r is a crossing vertex
    with a small true neighbor w1 forming a 3-face corner (w1, r, s), and
    the segment r-w1 is flanked by at least one big face."""
    a = ctx.a
    star = ctx.star
    if a.classification[r].kind != CROSSING:
        return False
    rot = star.rotation[r]
    k = len(rot)
    i = rot.index(r_dart)
    cf = ctx.corner[r]
    for j, corner_fi in (((i - 1) % k, cf[i]), ((i + 1) % k, cf[(i + 1) % k])):
        if ctx.face_size[corner_fi] != 3:
            continue
        w1 = star.other_end(rot[j])
        cw = a.classification[w1]
        if cw.kind != TRUE or cw.size_class != "small":
            continue
        flanks = (ctx.face_size[cf[j]], ctx.face_size[cf[(j + 1) % k]])
        if max(flanks) >= 4:
            return True
    return False


# ---------------------------------------------------------------------------
# JSON (de)serialization

def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _is_flag(v) -> bool:
    return isinstance(v, bool)


def _is_list(v) -> bool:
    return isinstance(v, (list, tuple))


def _is_fraction(v) -> bool:
    try:
        Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        return False
    return not isinstance(v, bool)


def _size_bound(v):
    """(exact, minimum) for a size: an int, or "k+" for at least k; None
    when v is neither."""
    if _is_count(v):
        return v, None
    if isinstance(v, str) and v.endswith("+") and v[:-1].isdigit():
        return None, int(v[:-1])
    return None


def _checked(d, checks: dict, what: str) -> dict:
    """d itself, once it is an object whose keys all appear in checks and
    whose non-null values pass them; null leaves a field unset."""
    if not isinstance(d, dict):
        raise RuleError(f"{what} must be an object, got {d!r}")
    unknown = set(d) - set(checks)
    if unknown:
        raise RuleError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in d.items():
        if value is not None and not checks[key](value):
            raise RuleError(f"bad {key} in {what}: {value!r}")
    return d


_TOKEN_KEYS = {
    "size": lambda v: _size_bound(v) is not None,
    "new_edge": _is_flag,
    "min_bigs": _is_count,
    "max_bigs": _is_count,
    "min_share": _is_fraction,
}
# a FaceToken holds a "k+" size as its min_size
_TOKEN_FIELDS = {**_TOKEN_KEYS, "size": _is_count, "min_size": _is_count}

# the class keys fit either end of a rule; the rest only the end named
_CLASS_KEYS = {
    "kind": lambda v: v in (TRUE, CROSSING),
    "d1": _is_count,
    "d2": _is_count,
    "size_class": lambda v: v in ("big", "small"),
    "new_incident": _is_flag,
}
_END_KEYS = {
    "sender": {
        **_CLASS_KEYS,
        "min_degree": lambda v: resolve_threshold(v, 0) is not None,  # or raises
        "via_new_edge": _is_flag,
    },
    "receiver": {
        **_CLASS_KEYS,
        "num_crossing_neighbors": _is_count,
        "opposite_end_small": _is_flag,
        "faces": _is_list,
    },
}

_RULE_KEYS = {
    "id": lambda v: isinstance(v, str),
    "sender": lambda v: True,  # checked as a pattern
    "receiver": lambda v: True,
    "amount": lambda v: True,  # checked by LocalRule
}


def _size_token(v) -> FaceToken:
    """The token of a size, an int or "k+"."""
    bound = _size_bound(v)
    if bound is None:
        raise RuleError(f"bad face token {v!r}")
    return FaceToken(*bound)


def _parse_face_token(v) -> FaceToken:
    if not isinstance(v, dict):
        return _size_token(v)
    _checked(v, _TOKEN_KEYS, "face token")
    size = v.get("size")
    return FaceToken(
        *((None, None) if size is None else _size_bound(size)),
        new_edge=v.get("new_edge"),
        min_bigs=v.get("min_bigs"),
        max_bigs=v.get("max_bigs"),
        min_share=v.get("min_share"),
    )


def _parse_end(d, where: str) -> EndPattern:
    kw = dict(_checked(d, _END_KEYS[where], f"{where} pattern"))
    if kw.get("faces") is not None:
        kw["faces"] = tuple(_parse_face_token(t) for t in kw["faces"])
    return EndPattern(**kw)


def rule_table_from_dict(data: dict) -> RuleTable:
    if not isinstance(data, dict) or not _is_list(data.get("rules")):
        raise RuleError("rule table must be an object with a 'rules' list")
    _checked(data, {"rules": _is_list, "exclusions": _is_list}, "rule table")
    rules = []
    for entry in data["rules"]:
        rid = _checked(entry, _RULE_KEYS, "rule").get("id")
        rules.append(
            LocalRule(
                id=rid,
                sender=_parse_end(entry.get("sender", {}), "sender"),
                receiver=_parse_end(entry.get("receiver", {}), "receiver"),
                amount=entry.get("amount"),
            )
        )
    return RuleTable(rules=rules, exclusions=tuple(data.get("exclusions") or ()))


def parse_rule_table(text: str) -> RuleTable:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RuleError(f"rule table is not valid JSON: {exc}") from None
    return rule_table_from_dict(data)


# ---------------------------------------------------------------------------
# The shipped default table.
#
# Sender side is uniform: a true vertex whose original degree is at least
# delta-2 (the bound forced on the far end of any original edge whose near
# end has degree at most five).  Receivers are grouped by their class;
# ids describe the receiver-side shape.  Token shorthand below: _T3O /
# _T3N are 3-faces without / with a new boundary edge, _Q1 a 4-face
# carrying at most one big occurrence.

_SENDER = {"kind": "true", "min_degree": "delta-2"}

_T3O = {"size": 3, "new_edge": False}
_T3N = {"size": 3, "new_edge": True}
_Q1 = {"size": 4, "max_bigs": 1}
_Q1N = {"size": 4, "max_bigs": 1, "new_edge": True}
_Q1O = {"size": 4, "max_bigs": 1, "new_edge": False}


def _rule(rid, receiver, amount):
    return {
        "id": rid,
        "sender": dict(_SENDER),
        "receiver": receiver,
        "amount": amount,
    }


DEFAULT_TABLE_DICT = {
    "rules": [
        # -- 3-vertices with three corners ----------------------------------
        _rule(
            "r33-two-quads",
            {"kind": "true", "d1": 3, "d2": 3, "faces": [3, 4, 4]},
            "1/3",
        ),
        _rule(
            "r33-big-opposite",
            {"kind": "true", "d1": 3, "d2": 3, "faces": [3, "5+", 3]},
            "2/3",
        ),
        # -- 3-vertices with one new edge ------------------------------------
        _rule(
            "r34-new-quad",
            {"kind": "true", "d1": 3, "d2": 4, "faces": [_T3O, _Q1N, _T3N, _T3O]},
            "1/3",
        ),
        _rule(
            "r34-new-triangles",
            {"kind": "true", "d1": 3, "d2": 4, "faces": [_T3N, _T3N, _Q1O, _T3O]},
            "1/3",
        ),
        # -- plain 4-vertices -------------------------------------------------
        _rule(
            "r44-alternating",
            {"kind": "true", "d1": 4, "d2": 4, "faces": [4, 3, 4, 3]},
            "1/6",
        ),
        _rule(
            "r44-three-crossings",
            {
                "kind": "true", "d1": 4, "d2": 4,
                "num_crossing_neighbors": 3, "faces": [3, 4, 4, 3],
            },
            "2/3",
        ),
        _rule(
            "r44-two-crossings",
            {
                "kind": "true", "d1": 4, "d2": 4,
                "num_crossing_neighbors": 2, "faces": [3, 4, 4, 3],
            },
            "1/3",
        ),
        _rule(
            "r44-triple-triangle",
            {"kind": "true", "d1": 4, "d2": 4, "faces": [3, 3, "4+", 3]},
            "2/3",
        ),
        _rule(
            "r44-one-quad-flank",
            {"kind": "true", "d1": 4, "d2": 4, "faces": [3, 3, 3, 4]},
            "1/3",
        ),
        # -- crossing vertices ------------------------------------------------
        _rule(
            "rx-twin-bigs",
            {
                "kind": "crossing", "opposite_end_small": True,
                "faces": [3, "4+", "4+", 3],
            },
            "2/3",
        ),
        _rule(
            "rx-quad-flank",
            {
                "kind": "crossing", "opposite_end_small": True,
                "faces": [4, "4+", 3, 3],
            },
            "1/3",
        ),
        _rule(
            "rx-alternating",
            {
                "kind": "crossing", "opposite_end_small": True,
                "faces": [3, "4+", 3, "4+"],
            },
            "1/3",
        ),
        _rule(
            "rx-inner-new",
            {"kind": "crossing", "faces": [_T3O, _T3N, _T3O, "4+"]},
            "1/2",
        ),
        _rule(
            "rx-new-far-big",
            {"kind": "crossing", "faces": [_T3O, "4+", _T3N, _T3O]},
            "2/3",
        ),
        _rule(
            "rx-new-rich-big",
            {
                "kind": "crossing",
                "faces": [_T3O, _T3O, _T3N, {"size": "4+", "min_share": "1"}],
            },
            "1/3",
        ),
        _rule(
            "rx-new-lone-big",
            {"kind": "crossing", "faces": [_T3O, _T3O, _T3N, _Q1]},
            "2/3",
        ),
        _rule(
            "rx-triangles-side",
            {"kind": "crossing", "faces": [_T3O, _T3O, _T3O, "4+"]},
            "1/3",
        ),
        _rule(
            "rx-triangles-mid",
            {"kind": "crossing", "faces": [_T3O, "4+", _T3O, _T3O]},
            "1/3",
        ),
        # -- small 5-vertices (with or without a new edge) --------------------
        _rule(
            "r5-quad-calm",
            {
                "kind": "true", "d2": 5, "size_class": "small",
                "faces": [_T3O, _Q1, _T3O, _T3N, _T3N],
            },
            "1/6",
        ),
        _rule(
            "r5-quad-shifted-new",
            {
                "kind": "true", "d2": 5, "size_class": "small",
                "faces": [_T3O, _Q1, _T3N, _T3N, 3],
            },
            "1/3",
        ),
        _rule(
            "r5-new-quad-near",
            {
                "kind": "true", "d2": 5, "size_class": "small",
                "faces": [3, _T3N, _Q1N, 3, 3],
            },
            "1/3",
        ),
        _rule(
            "r5-new-quad-far",
            {
                "kind": "true", "d2": 5, "size_class": "small",
                "faces": [3, 3, _T3N, _Q1N, 3],
            },
            "1/3",
        ),
        _rule(
            "r5-fan-mid",
            {
                "kind": "true", "d2": 5, "size_class": "small",
                "faces": [_T3O, _T3O, _T3N, _T3N, _T3O],
            },
            "1/2",
        ),
        _rule(
            "r5-fan-far",
            {
                "kind": "true", "d2": 5, "size_class": "small",
                "faces": [_T3O, _T3O, _T3O, _T3N, _T3N],
            },
            "1/2",
        ),
        # Same full fan, but with the two true senders joined by a new edge
        # of their own: the triangle across from the sender is then new too.
        _rule(
            "r5-fan-bridged",
            {
                "kind": "true", "d2": 5, "size_class": "small",
                "faces": [_T3N, _T3O, _T3N, _T3N, _T3O],
            },
            "1/2",
        ),
    ],
    "exclusions": ["guarded-crossing"],
}

@cache
def default_rules() -> RuleTable:
    return rule_table_from_dict(DEFAULT_TABLE_DICT)

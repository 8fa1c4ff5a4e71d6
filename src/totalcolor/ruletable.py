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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .augment import AugmentedGraph
from .embedding import CROSSING, TRUE, dart_face_index

AMOUNT_MENU = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


class RuleError(ValueError):
    """Malformed rule table, or two rules firing on one ordered pair."""


@dataclass(frozen=True)
class FaceToken:
    size: int | None = None
    min_size: int | None = None
    new_edge: bool | None = None
    min_bigs: int | None = None
    max_bigs: int | None = None
    min_share: Fraction | None = None

    def matches(self, ctx: "MatchContext", fi: int) -> bool:
        if self.size is not None and ctx.face_size[fi] != self.size:
            return False
        if self.min_size is not None and ctx.face_size[fi] < self.min_size:
            return False
        if self.new_edge is not None and ctx.face_new[fi] != self.new_edge:
            return False
        if self.min_bigs is not None and ctx.face_bigs[fi] < self.min_bigs:
            return False
        if self.max_bigs is not None and ctx.face_bigs[fi] > self.max_bigs:
            return False
        if self.min_share is not None:
            share = ctx.face_share(fi)
            if share is not None and share < self.min_share:
                return False
        return True


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
        # tables parsed and tables built in code both pass here, so a bad
        # threshold fails before any dart is examined
        if self.min_degree is not None:
            resolve_threshold(self.min_degree, 0)


@dataclass(frozen=True)
class LocalRule:
    id: str
    sender: EndPattern
    receiver: EndPattern
    amount: Fraction


@dataclass
class RuleTable:
    rules: list = field(default_factory=list)
    exclusions: tuple = ()


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
    its face, and one step per crossing dart.  A vertex's corner list
    (`corner[v]`) is made only when something reads it: R3's (5,5)
    candidates, rule-table receivers that a sender side admits in a class
    with a faces pattern as long as the rotation, and guarded_crossing's
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
        smalls = self.face_smalls[fi]
        if smalls == 0:
            return None
        return Fraction(2 * self.face_size[fi] - 6, smalls)


_THRESHOLDS = {"delta": 0, "delta-1": 1, "delta-2": 2}


def resolve_threshold(value, delta: int) -> int:
    """A non-negative int as is, a _THRESHOLDS name counted down from delta."""
    if _is_count(value):
        return value
    if isinstance(value, str) and value in _THRESHOLDS:
        return delta - _THRESHOLDS[value]
    raise RuleError(f"bad degree threshold {value!r}")


def _class_matches(p: EndPattern, c) -> bool:
    """The class fields either end of a rule may pin."""
    return (
        (p.kind is None or c.kind == p.kind)
        and (p.d1 is None or c.d1 == p.d1)
        and (p.d2 is None or c.d2 == p.d2)
        and (p.size_class is None or c.size_class == p.size_class)
        and (p.new_incident is None or c.new_incident == p.new_incident)
    )


def sender_matches(p: EndPattern, ctx: MatchContext, s, r_dart: int, min_degree) -> bool:
    """min_degree is p.min_degree resolved against the ledger's delta, or None."""
    c = ctx.a.classification[s]
    if not _class_matches(p, c):
        return False
    if min_degree is not None:
        # degree thresholds refer to the original graph for true vertices
        degree = c.d1 if c.kind == TRUE else c.d2
        if degree < min_degree:
            return False
    if p.via_new_edge is not None and ctx.star.is_new(r_dart) != p.via_new_edge:
        return False
    return True


def receiver_matches(p: EndPattern, ctx: MatchContext, r, r_dart: int) -> bool:
    c = ctx.a.classification[r]
    if not _class_matches(p, c):
        return False
    if p.num_crossing_neighbors is not None and ctx.crossing_nbrs[r] != p.num_crossing_neighbors:
        return False
    rot = ctx.star.rotation[r]
    k = len(rot)
    i = rot.index(r_dart)
    if p.opposite_end_small is not None:
        if c.kind != CROSSING:
            return False
        w = ctx.star.other_end(rot[(i + 2) % 4])
        small = ctx.a.classification[w].size_class == "small"
        if small != p.opposite_end_small:
            return False
    if p.faces is not None:
        if len(p.faces) != k:
            return False
        cf = ctx.corner[r]
        forward = [cf[(i + 1 + t) % k] for t in range(k)]
        if not _tokens_match(p.faces, ctx, forward):
            if not _tokens_match(p.faces, ctx, list(reversed(forward))):
                return False
    return True


def _tokens_match(tokens, ctx, face_ids) -> bool:
    return all(tok.matches(ctx, fi) for tok, fi in zip(tokens, face_ids))


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
    "amount": lambda v: True,  # checked against the menu
}


def _parse_face_token(v) -> FaceToken:
    if not isinstance(v, dict):
        bound = _size_bound(v)
        if bound is None:
            raise RuleError(f"bad face token {v!r}")
        return FaceToken(*bound)
    _checked(v, _TOKEN_KEYS, "face token")
    size, share = v.get("size"), v.get("min_share")
    return FaceToken(
        *((None, None) if size is None else _size_bound(size)),
        new_edge=v.get("new_edge"),
        min_bigs=v.get("min_bigs"),
        max_bigs=v.get("max_bigs"),
        min_share=None if share is None else Fraction(share),
    )


def _parse_end(d, where: str) -> EndPattern:
    fields = dict(_checked(d, _END_KEYS[where], f"{where} pattern"))
    if fields.get("faces") is not None:
        fields["faces"] = tuple(_parse_face_token(t) for t in fields["faces"])
    return EndPattern(**fields)


def rule_table_from_dict(data: dict) -> RuleTable:
    if not isinstance(data, dict) or not _is_list(data.get("rules")):
        raise RuleError("rule table must be an object with a 'rules' list")
    _checked(data, {"rules": _is_list, "exclusions": _is_list}, "rule table")
    rules = []
    seen = set()
    for entry in data["rules"]:
        rid = _checked(entry, _RULE_KEYS, "rule").get("id")
        if not rid or rid in seen:
            raise RuleError(f"missing or duplicate rule id {rid!r}")
        seen.add(rid)
        try:
            amount = Fraction(entry["amount"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise RuleError(f"rule {rid}: bad amount") from None
        if amount not in AMOUNT_MENU:
            raise RuleError(
                f"rule {rid}: amount {amount} outside the menu "
                f"{[str(x) for x in AMOUNT_MENU]}"
            )
        rules.append(
            LocalRule(
                id=rid,
                sender=_parse_end(entry.get("sender", {}), "sender"),
                receiver=_parse_end(entry.get("receiver", {}), "receiver"),
                amount=amount,
            )
        )
    exclusions = tuple(data.get("exclusions") or ())
    for i, name in enumerate(exclusions):
        if name != "guarded-crossing":
            raise RuleError(f"unknown exclusion {name!r}")
        if name in exclusions[:i]:
            raise RuleError(f"repeated exclusion {name!r}")
    return RuleTable(rules=rules, exclusions=exclusions)


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

DEFAULT_TABLE_JSON = json.dumps(DEFAULT_TABLE_DICT, indent=2)


@cache
def default_rules() -> RuleTable:
    return rule_table_from_dict(DEFAULT_TABLE_DICT)

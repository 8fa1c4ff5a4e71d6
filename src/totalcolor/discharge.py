"""Exact discharging over an augmented 1-embedded graph.

Charges live on the vertices and faces of G*: a vertex starts at
deg(v) - 6, a face at 2*size(f) - 6, so everything sums to -6 times the
Euler characteristic.  Four redistribution passes move charge around
without changing that total:

  R1  every max-degree vertex adjacent to a degree-3 original vertex pays
      1/2 into a shared pool, and the pool pays 1 to every such vertex;
  R2  every face of size >= 4 splits its entire charge equally among its
      small boundary occurrences;
  R3  a small 5-vertex wrapped in five 3-faces collects 1/3 from each
      neighbor that is an original vertex;
  R4  the configurable local rules (see `ruletable`).

All arithmetic is `fractions.Fraction`; the ledger records every transfer
(and every transfer suppressed by an exclusion) so the result is fully
auditable.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import itemgetter
from typing import NamedTuple

from .augment import AugmentedGraph
from .embedding import CROSSING, SURFACES, TRUE
from .graphs import find_k4s
from .ruletable import (
    MatchContext,
    RuleTable,
    default_rules,
    guarded_crossing,
    receiver_matches,
    receiver_view,
    resolve_threshold,
    sender_matches,
)

POOL = ("pool",)


class DischargeError(ValueError):
    """Inconsistent discharging run (e.g. two rules claim one transfer)."""


class TransferRecord(NamedTuple):
    """One movement of charge.

    `source` / `target` are vertex ids, ``("face", i)``, or ``("pool",)``.
    For vertex-to-vertex transfers `dart` is the sender-side dart, which
    pins the rotation position the charge flows through (the semi-fan
    accounting needs it); for face payouts it is the receiving boundary
    dart, so parallel occurrences stay distinguishable.
    """

    rule: str
    source: object
    target: object
    amount: Fraction
    dart: int | None = None


@dataclass
class ChargeLedger:
    """The initial charges of G* and every transfer since; final() alone
    derives final charges from them."""

    a: AugmentedGraph
    delta: int
    initial: dict
    transfers: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    pool: Fraction = Fraction(0)
    pool_flagged: bool = False
    applied: list = field(default_factory=list)
    # the one pattern-matching index over G* that every pass reads
    ctx: MatchContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ctx = MatchContext(self.a)

    def initial_total(self) -> Fraction:
        return _exact_sum(self.initial.values())

    def final(self) -> dict:
        """The final charges, keyed in the order of `initial`.

        Cost: one integer pass over the transfers and one Fraction per
        distinct final value.  Every amount and initial charge is a whole
        count of 1/L, L the lcm of their distinct denominators, so each
        element's net flow is summed as an int; an element whose flow nets
        to zero keeps its initial object, and equal final values share
        one.  A transfer naming an element outside G* (other than the
        pool) raises KeyError."""
        initial = self.initial
        out = dict(initial)
        # one entry per distinct object: rules share their amounts, and
        # initial_charges one Fraction per distinct charge
        distinct = {
            id(x): x for x in chain(map(itemgetter(3), self.transfers), initial.values())
        }
        den = lcm(*(x.denominator for x in distinct.values()))
        units = {k: den // x.denominator * x.numerator for k, x in distinct.items()}
        net: dict = {}
        get = net.get
        for _, source, target, x, _ in self.transfers:
            u = units[id(x)]
            net[source] = get(source, 0) - u
            net[target] = get(target, 0) + u
        net.pop(POOL, None)
        made: dict = {}  # final count of 1/L -> its one Fraction
        for el, u in net.items():
            c = initial[el]
            if u:
                u += units[id(c)]
                x = made.get(u)
                if x is None:
                    x = made[u] = Fraction(u, den)
                out[el] = x
        return out

    def conserved_total(self) -> Fraction:
        """Sum of all final charges plus the pool balance; transfers never
        change it."""
        return _exact_sum(self.final().values()) + self.pool


def _exact_sum(xs) -> Fraction:
    """sum(xs, Fraction(0)), reading each distinct object once, times its
    count, and adding numerators per denominator first, so one Fraction
    is reduced per distinct denominator, not one per term.  Charges share
    their objects (see ChargeLedger.final and initial_charges), so a
    G* with thousands of elements holds about a hundred distinct ones."""
    xs = list(xs)
    count = Counter(map(id, xs))
    value = dict(zip(map(id, xs), xs))
    by_den: dict = {}
    for k, n in count.items():
        x = value[k]
        by_den[x.denominator] = by_den.get(x.denominator, 0) + x.numerator * n
    return sum((Fraction(n, d) for d, n in by_den.items()), Fraction(0))


def element_label(e) -> str:
    if e == POOL:
        return "pool"
    if isinstance(e, tuple) and e and e[0] == "face":
        return f"f{e[1]}"
    return f"v{e}"


def initial_charges(a: AugmentedGraph) -> dict:
    """deg(v) - 6 per vertex and 2*size(f) - 6 per face, keyed in element
    order: the vertices ascending, then ("face", i) by face index.
    final() keeps that order, and final_report relies on it."""
    star = a.star
    rotation = star.rotation
    charges = {v: len(rotation[v]) - 6 for v in star.vertices()}
    for i, f in enumerate(star.faces()):
        charges[("face", i)] = 2 * len(f) - 6
    # a Fraction is immutable, so one per distinct charge is shared
    shared = {k: Fraction(k) for k in set(charges.values())}
    return {el: shared[k] for el, k in charges.items()}


def make_ledger(a: AugmentedGraph) -> ChargeLedger:
    return ChargeLedger(a=a, delta=a.g.max_degree(), initial=initial_charges(a))


def apply_r1(a: AugmentedGraph, ledger: ChargeLedger) -> None:
    """Max-degree vertices adjacent to degree-3 original vertices each pay
    1/2 into the pool; the pool pays 1 to every degree-3 original vertex.
    The pool may end negative; that is flagged, not fatal."""
    star = a.star
    delta = ledger.delta
    receivers = [v for v, c in a.classification.items() if c.kind == TRUE and c.d1 == 3]
    rset = set(receivers)
    senders = []
    for v in star.vertices():
        c = a.classification[v]
        if c.kind != TRUE or c.d2 != delta:
            continue
        if any(star.other_end(d) in rset for d in star.rotation[v]):
            senders.append(v)
    half = Fraction(1, 2)
    one = Fraction(1)
    ledger.transfers.extend(TransferRecord("R1", v, POOL, half) for v in senders)
    ledger.transfers.extend(TransferRecord("R1", POOL, v, one) for v in receivers)
    # the senders' halves less the receivers' ones, added to the pool at once
    ledger.pool += Fraction(len(senders) - 2 * len(receivers), 2)
    if ledger.pool < 0:
        ledger.pool_flagged = True
    ledger.applied.append("R1")


def apply_r2(a: AugmentedGraph, ledger: ChargeLedger) -> None:
    """Every big face splits its whole charge equally among its small
    boundary occurrences (with multiplicity); a big face with no small
    occurrence keeps its charge."""
    star = a.star
    ctx = ledger.ctx
    for fi, f in enumerate(ctx.faces):
        if len(f) < 4:
            continue
        share = ctx.face_share(fi)
        if share is None:
            continue
        for d in f:
            v = star.owner[d]
            if a.classification[v].size_class == "small":
                ledger.transfers.append(
                    TransferRecord("R2", ("face", fi), v, share, dart=d)
                )
    ledger.applied.append("R2")


def apply_r3(a: AugmentedGraph, ledger: ChargeLedger) -> None:
    """A small (5,5) original vertex whose five corners are all 3-faces
    collects 1/3 from each original-vertex neighbor."""
    star = a.star
    ctx = ledger.ctx
    third = Fraction(1, 3)
    for v in star.vertices():
        c = a.classification[v]
        if c.kind != TRUE or c.d1 != 5 or c.d2 != 5:
            continue
        if any(ctx.face_size[fi] != 3 for fi in ctx.corner[v]):
            continue
        for d in star.rotation[v]:
            w = star.other_end(d)
            if star.vertex_kind[w] == TRUE:
                ledger.transfers.append(
                    TransferRecord("R3", w, v, third, dart=star.twin[d])
                )
    ledger.applied.append("R3")


class _ReceiverClass:
    """The rules one receiver class admits, in table order (rule b is bit
    b of a mask), with each side's masks memoized under the arguments its
    pattern tests take besides the rule and the receiver's class."""

    __slots__ = ("rules", "senders", "views", "corners")

    def __init__(self, c, resolved):
        self.rules = [(rule, m) for rule, m in resolved if rule.receiver.admits(c)]
        self.senders = ({}, {})  # [via a new edge][id of the sender's class] -> mask
        self.views: dict = {}  # receiver_view -> mask
        self.corners = any(rule.receiver.reads_corners(c.d2) for rule, _ in self.rules)


def apply_rule_table(
    a: AugmentedGraph, ledger: ChargeLedger, table: RuleTable | None = None
) -> None:
    """Fire the local rules on every ordered adjacent pair, one connecting
    dart at a time.  Two distinct rules matching the same dart is a table
    defect and raises DischargeError; the guarded-crossing exclusion (when
    the table enables it) reroutes matched transfers to `ledger.skipped`.

    A receiver is tried only against the rules whose receiver end admits
    its VertexClass, in table order: an excluded rule fails
    `receiver_matches` on every dart of the receiver.  Within a class each
    pattern test is memoized under the arguments it takes besides the rule
    and the class: `sender_matches` under (sender class, dart is new), and
    `receiver_matches` under the dart's `receiver_view`, which is built
    only at a dart some sender side admits and lists corners only when a
    rule of the class reads them, so all darts of a hub share one view.  A
    test reads nothing but its arguments, so the hits, their order, the
    DischargeError and the guard routing are those of testing every rule
    on every dart."""
    if table is None:
        table = default_rules()
    ctx = ledger.ctx
    star = a.star
    cls = a.classification
    owner, twin, new = star.owner, star.twin, star.new_darts()
    use_guard = "guarded-crossing" in table.exclusions
    resolved = []  # each rule with its sender threshold, resolved once
    for rule in table.rules:
        m = rule.sender.min_degree
        resolved.append((rule, None if m is None else resolve_threshold(m, ledger.delta)))
    # classes are shared per distinct class, so their ids key the memos
    by_class: dict = {}  # id(VertexClass) -> _ReceiverClass
    for r in star.vertices():
        c = cls[r]
        entry = by_class.get(id(c))
        if entry is None:
            entry = by_class[id(c)] = _ReceiverClass(c, resolved)
        rules = entry.rules
        if not rules:
            continue
        for i, r_dart in enumerate(star.rotation[r]):
            s = owner[twin[r_dart]]
            sc = cls[s]
            via_new = r_dart in new
            senders = entry.senders[via_new]
            smask = senders.get(id(sc))
            if smask is None:
                smask = senders[id(sc)] = sum(
                    1 << b
                    for b, (rule, m) in enumerate(rules)
                    if sender_matches(rule.sender, sc, via_new, m)
                )
            if not smask:
                continue
            view = receiver_view(ctx, r, i, entry.corners)
            rmask = entry.views.get(view)
            if rmask is None:
                rmask = entry.views[view] = sum(
                    1 << b
                    for b, (rule, _) in enumerate(rules)
                    if receiver_matches(rule.receiver, c, view)
                )
            hit = smask & rmask
            if not hit:
                continue
            hits = [rule for b, (rule, _) in enumerate(rules) if hit >> b & 1]
            if len(hits) > 1:
                ids = ", ".join(rule.id for rule in hits)
                raise DischargeError(
                    f"rules {ids} all claim the transfer {s} -> {r} "
                    f"(dart {r_dart})"
                )
            rule = hits[0]
            rec = TransferRecord(rule.id, s, r, rule.amount, dart=twin[r_dart])
            if use_guard and guarded_crossing(ctx, s, r, r_dart):
                ledger.skipped.append(rec)
            else:
                ledger.transfers.append(rec)
    ledger.applied.append("R4")


def discharge(a: AugmentedGraph, table: RuleTable | None = None) -> ChargeLedger:
    """Run the full pipeline R1, R2, R3, then the local rule table."""
    ledger = make_ledger(a)
    apply_r1(a, ledger)
    apply_r2(a, ledger)
    apply_r3(a, ledger)
    apply_rule_table(a, ledger, table)
    return ledger


# ---------------------------------------------------------------------------
# Sender-side accounting


@dataclass(frozen=True)
class SemiFan:
    """A maximal run of charge-carrying consecutive edges at one sender,
    padded by the idle edge on each side.  `faces` counts the corners
    spanned by the padded run; `average` is what the sender pays per
    corner."""

    center: object
    positions: tuple  # rotation indices of the paying edges
    total: Fraction
    faces: int

    @property
    def average(self) -> Fraction:
        return self.total / self.faces


def semi_fans(a: AugmentedGraph, ledger: ChargeLedger, center: object):
    """Group one sender's outgoing vertex transfers into semi-fans: the
    maximal cyclic runs of rotation positions that carry charge, the run
    through position 0 first and the rest by first position.  A quiet
    center gives one empty fan, and a wheel paying on every edge one fan
    of all of them.  The center must be a true vertex of G*-degree at
    least delta - 2, else DischargeError."""
    min_degree = ledger.delta - 2
    c = a.classification.get(center)
    if c is None:
        raise DischargeError(f"semi-fan center {center} is not a vertex of G*")
    if c.kind != TRUE:
        raise DischargeError(f"semi-fan center {center} is not a true vertex")
    if c.d2 < min_degree:
        raise DischargeError(
            f"semi-fan center {center} has degree {c.d2}, below {min_degree}"
        )
    sent = {}
    for t in ledger.transfers:
        if t.source == center and t.dart is not None and t.rule != "R2":
            sent[t.dart] = sent.get(t.dart, Fraction(0)) + t.amount
    if not sent:
        # a quiet center is one degenerate fan with nothing in it
        return [SemiFan(center=center, positions=(), total=Fraction(0), faces=1)]
    rot = a.star.rotation[center]
    k = len(rot)
    out = [sent.get(d, Fraction(0)) for d in rot]
    if all(x > 0 for x in out):
        # no idle edge anywhere: the whole wheel is one fan
        total = sum(out, Fraction(0))
        return [SemiFan(center=center, positions=tuple(range(k)), total=total, faces=k)]
    # one scan from just past the last idle edge at or before position 0:
    # a run through 0 comes first, and the idle edge last closes the scan
    idle = next(i for i in range(0, -k, -1) if out[i] <= 0)
    fans = []
    run = []
    for p in range(idle + 1, idle + k + 1):
        p %= k
        if out[p] > 0:
            run.append(p)
        elif run:
            total = sum((out[q] for q in run), Fraction(0))
            fans.append(
                SemiFan(center=center, positions=tuple(run), total=total, faces=len(run) + 1)
            )
            run = []
    return fans


# ---------------------------------------------------------------------------
# Structural claims about where charge can and cannot flow


@dataclass
class ClaimReport:
    no_4_clique: list
    one_big_vertex: list
    big_face: list
    crossing_quiet: list

    def holds(self) -> bool:
        return not any(self.counts().values())

    def counts(self) -> dict:
        return {
            "no_4_clique": len(self.no_4_clique),
            "one_big_vertex": len(self.one_big_vertex),
            "big_face": len(self.big_face),
            "crossing_quiet": len(self.crossing_quiet),
        }


def check_claims(a: AugmentedGraph, ledger: ChargeLedger) -> ClaimReport:
    """Evaluate the four structural claims on this instance.  A violation
    is evidence that the input is not one of the critical instances the
    argument targets — it is reported, never raised."""
    star = a.star
    ctx = ledger.ctx
    cls = a.classification

    k4s = find_k4s(a.g)

    one_big = []
    big_face = []
    for fi, f in enumerate(star.faces()):
        s = len(f)
        if s < 4:
            continue
        verts = [star.owner[d] for d in f]
        isnew = [star.is_new(d) for d in f]
        for i in range(s):
            # forward triple (u, v, w) and its mirror along the boundary
            for u_i, v_i, w_i, uv_new in (
                (i, (i + 1) % s, (i + 2) % s, isnew[i]),
                (i, (i - 1) % s, (i - 2) % s, isnew[(i - 1) % s]),
            ):
                u, v, w = verts[u_i], verts[v_i], verts[w_i]
                cu = cls[u]
                if cu.kind != TRUE or cu.d1 > 5 or uv_new:
                    continue
                if cls[v].size_class != "big" and cls[w].size_class != "big":
                    one_big.append((fi, u, v, w))
        share = ctx.face_share(fi)
        for i in range(s):
            v = verts[i]
            cv = cls[v]
            if cv.kind != TRUE or cv.d1 > 5 or cv.size_class != "small":
                continue
            # both boundary edges at this occurrence must be original
            if isnew[i] or isnew[(i - 1) % s]:
                continue
            u, w = verts[(i - 1) % s], verts[(i + 1) % s]
            both_crossing = (
                cls[u].kind == CROSSING and cls[w].kind == CROSSING
            )
            if s == 4:
                ok = share >= 1 or (both_crossing and share == Fraction(2, 3))
            else:
                ok = share >= Fraction(4, 3)
            if not ok:
                big_face.append((fi, v, u, w, share))

    quiet = []
    for t in ledger.transfers:
        if t.dart is None or isinstance(t.source, tuple):
            continue
        target = t.target
        if not isinstance(target, tuple) and cls.get(target) is not None:
            if cls[target].kind == CROSSING:
                r_dart = star.twin[t.dart]
                if guarded_crossing(ctx, t.source, target, r_dart):
                    quiet.append((t.source, target, t.rule, t.amount))

    return ClaimReport(
        no_4_clique=k4s,
        one_big_vertex=sorted(set(one_big)),
        big_face=big_face,
        crossing_quiet=quiet,
    )


# ---------------------------------------------------------------------------
# Reporting


def final_report(ledger: ChargeLedger) -> dict:
    """JSON-ready summary; rationals are rendered by str() as exact 'p/q'
    (or 'n') strings and negatively charged elements are listed first, each
    part in element order (see initial_charges).  `conserved` holds when
    the final total, pool included, equals both the initial total and -6
    times the Euler characteristic of the star's surface, so it also checks
    the initial charges against the drawing.

    Cost: one label per element and one dict per transfer row, but one
    rendering per distinct charge or amount object: final() shares equal
    final values, initial_charges equal initial ones, and the rules of a
    table their amounts.  Every record names elements of G* or the pool."""
    a = ledger.a
    final = ledger.final()
    # a stable partition of the element order; a Fraction's sign is its
    # numerator's, read without a Fraction compare
    negative = [ec for ec in final.items() if ec[1].numerator < 0]
    ordered = negative + [ec for ec in final.items() if ec[1].numerator >= 0]
    # conserved_total() over the final charges already in hand
    initial_total = ledger.initial_total()
    final_total = _exact_sum(final.values()) + ledger.pool
    amounts = map(itemgetter(3), chain(ledger.transfers, ledger.skipped))
    shown = {id(x): x for x in chain(final.values(), amounts)}
    text = {k: str(x) for k, x in shown.items()}
    labels = {e: element_label(e) for e in chain(final, [POOL])}

    def rows(records: list) -> list:
        return [
            {
                "rule": rule,
                "from": labels[source],
                "to": labels[target],
                "amount": text[id(x)],
            }
            for rule, source, target, x, _ in records
        ]

    return {
        "surface": a.star.surface,
        "delta": ledger.delta,
        "applied": list(ledger.applied),
        "initial_total": str(initial_total),
        "final_total": str(final_total),
        "conserved": final_total == initial_total == -6 * SURFACES[a.star.surface],
        "pool": str(ledger.pool),
        "pool_flagged": ledger.pool_flagged,
        "negative_count": len(negative),
        "charges": {labels[e]: text[id(c)] for e, c in ordered},
        "transfers": rows(ledger.transfers),
        "skipped": rows(ledger.skipped),
    }

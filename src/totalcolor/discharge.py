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

from dataclasses import dataclass, field
from fractions import Fraction

from .augment import AugmentedGraph
from .embedding import CROSSING, TRUE
from .graphs import find_k4s
from .ruletable import (
    MatchContext,
    RuleTable,
    default_rules,
    guarded_crossing,
    receiver_matches,
    sender_matches,
)

POOL = ("pool",)


class DischargeError(ValueError):
    """Inconsistent discharging run (e.g. two rules claim one transfer)."""


@dataclass(frozen=True)
class TransferRecord:
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
        return sum(self.initial.values(), Fraction(0))

    def final(self) -> dict:
        out = dict(self.initial)
        for t in self.transfers:
            if t.source != POOL:
                out[t.source] -= t.amount
            if t.target != POOL:
                out[t.target] += t.amount
        return out

    def final_of(self, element) -> Fraction:
        return self.final()[element]

    def conserved_total(self) -> Fraction:
        """Sum of all final charges plus the pool balance; transfers never
        change it."""
        return sum(self.final().values(), Fraction(0)) + self.pool

    def received_by(self, element) -> Fraction:
        return sum((t.amount for t in self.transfers if t.target == element), Fraction(0))


def _element_key(e):
    if isinstance(e, tuple):
        return (1, e[1] if len(e) > 1 else -1)
    return (0, e)


def element_label(e) -> str:
    if e == POOL:
        return "pool"
    if isinstance(e, tuple) and e and e[0] == "face":
        return f"f{e[1]}"
    return f"v{e}"


def initial_charges(a: AugmentedGraph) -> dict:
    star = a.star
    charges = {v: Fraction(star.degree(v) - 6) for v in star.vertices()}
    for i, f in enumerate(star.faces()):
        charges[("face", i)] = Fraction(2 * f.size - 6)
    return charges


def make_ledger(a: AugmentedGraph) -> ChargeLedger:
    return ChargeLedger(a=a, delta=a.g.max_degree(), initial=initial_charges(a))


def apply_r1(a: AugmentedGraph, ledger: ChargeLedger) -> None:
    """Max-degree vertices adjacent to degree-3 original vertices each pay
    1/2 into the pool; the pool pays 1 to every degree-3 original vertex.
    The pool may end negative; that is flagged, not fatal."""
    star = a.star
    delta = ledger.delta
    receivers = [v for v, c in a.classification.items() if c.kind == TRUE and c.d1 == 3]
    if not receivers:
        ledger.applied.append("R1")
        return
    rset = set(receivers)
    senders = []
    for v in star.vertices():
        c = a.classification[v]
        if c.kind != TRUE or c.d2 != delta:
            continue
        if any(star.other_end(d) in rset for d in star.rotation[v]):
            senders.append(v)
    half = Fraction(1, 2)
    for v in senders:
        ledger.transfers.append(TransferRecord("R1", v, POOL, half))
        ledger.pool += half
    for v in receivers:
        ledger.transfers.append(TransferRecord("R1", POOL, v, Fraction(1)))
        ledger.pool -= 1
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
        share = ctx.face_share(fi)
        if f.size < 4 or share is None:
            continue
        for d in f.boundary:
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


def apply_rule_table(
    a: AugmentedGraph, ledger: ChargeLedger, table: RuleTable | None = None
) -> None:
    """Fire the local rules on every ordered adjacent pair, one connecting
    dart at a time.  Two distinct rules matching the same dart is a table
    defect and raises DischargeError; the guarded-crossing exclusion (when
    the table enables it) reroutes matched transfers to `ledger.skipped`."""
    if table is None:
        table = default_rules()
    ctx = ledger.ctx
    star = a.star
    delta = ledger.delta
    use_guard = "guarded-crossing" in table.exclusions
    for r in star.vertices():
        for r_dart in star.rotation[r]:
            s = star.other_end(r_dart)
            hits = [
                rule
                for rule in table.rules
                if sender_matches(rule.sender, ctx, s, r_dart, delta)
                and receiver_matches(rule.receiver, ctx, r, r_dart)
            ]
            if len(hits) > 1:
                ids = ", ".join(rule.id for rule in hits)
                raise DischargeError(
                    f"rules {ids} all claim the transfer {s} -> {r} "
                    f"(dart {r_dart})"
                )
            if not hits:
                continue
            rule = hits[0]
            rec = TransferRecord(rule.id, s, r, rule.amount, dart=star.twin[r_dart])
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
    """Group one sender's outgoing vertex transfers into semi-fans.  The
    center must be a true vertex of G*-degree at least delta - 2, else
    DischargeError."""
    min_degree = ledger.delta - 2
    c = a.classification[center]
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
    fans = []
    i = 0
    seen = set()
    while i < k:
        if out[i] > 0 and i not in seen:
            start = i
            while out[(start - 1) % k] > 0:
                start = (start - 1) % k
            run = []
            j = start
            while out[j] > 0:
                run.append(j)
                seen.add(j)
                j = (j + 1) % k
            total = sum((out[p] for p in run), Fraction(0))
            fans.append(
                SemiFan(center=center, positions=tuple(run), total=total, faces=len(run) + 1)
            )
        i += 1
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
        return not (
            self.no_4_clique
            or self.one_big_vertex
            or self.big_face
            or self.crossing_quiet
        )

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
        s = f.size
        if s < 4:
            continue
        b = f.boundary
        verts = [star.owner[d] for d in b]
        isnew = [star.is_new(d) for d in b]
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


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def final_report(ledger: ChargeLedger) -> dict:
    """JSON-ready summary; rationals are rendered as exact 'p/q' strings
    and negatively charged elements are listed first."""
    a = ledger.a
    final = ledger.final()
    ordered = sorted(final.items(), key=lambda ec: (ec[1] >= 0, _element_key(ec[0])))
    initial_total, final_total = ledger.initial_total(), ledger.conserved_total()
    return {
        "surface": a.star.surface,
        "delta": ledger.delta,
        "applied": list(ledger.applied),
        "initial_total": _frac_str(initial_total),
        "final_total": _frac_str(final_total),
        "conserved": final_total == initial_total,
        "pool": _frac_str(ledger.pool),
        "pool_flagged": ledger.pool_flagged,
        "negative_count": sum(1 for _, c in final.items() if c < 0),
        "charges": {
            element_label(e): _frac_str(c) for e, c in ordered
        },
        "transfers": [_transfer_row(t) for t in ledger.transfers],
        "skipped": [_transfer_row(t) for t in ledger.skipped],
    }


def _transfer_row(t: TransferRecord) -> dict:
    return {
        "rule": t.rule,
        "from": element_label(t.source),
        "to": element_label(t.target),
        "amount": _frac_str(t.amount),
    }

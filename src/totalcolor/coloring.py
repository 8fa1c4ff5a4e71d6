"""Total colorings: verification, exact and greedy palettes, and the two
constructive extension steps behind edge-deletion reduction.

Elements are tagged tuples: ("v", x) for a vertex, ("e", u, v) for an edge
with u < v.  `total_elements` fixes their order: vertices ascending, then
edges in `g.edges()` order (lexicographic).  Colors are integers starting
at 1.  All solvers are deterministic: ties break by element order, colors
are tried ascending.

The search routines work on integers.  `conflict_lists(g)` returns the
elements in that order together with, for element i, the ascending list
of the indices of the elements that conflict with i (adjacent vertices,
a vertex and an edge at it, two edges sharing an end).  A coloring in
progress is then a flat list of colors indexed the same way, and
`_paint` writes it into a TotalColoring once at the end.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# no module in src/ calls add_edge any more; it is imported only because
# the benchmark's tracer binds coloring.add_edge
from .graphs import SimpleGraph, add_edge, build_graph, delete_edge, edge_key


class ColoringError(ValueError):
    """Bad input to a coloring operation (partial maps, budget, preconditions)."""


def total_elements(g: SimpleGraph) -> list:
    return [("v", v) for v in g.vertices] + [("e",) + e for e in g.edges()]


def conflict_lists(g: SimpleGraph) -> tuple:
    """(els, nbrs): the elements in total_elements order, and for each the
    sorted indices of the elements it conflicts with."""
    els = total_elements(g)
    index = {el: i for i, el in enumerate(els)}
    nbrs = []
    for i, el in enumerate(els):
        ends = el[1:]
        near = {index[("e",) + edge_key(x, w)] for x in ends for w in g.neighbors(x)}
        if el[0] == "v":
            near |= {index["v", w] for w in g.neighbors(el[1])}
        else:
            near |= {index["v", x] for x in ends}
        near.discard(i)  # an edge is among the edges at its own ends
        nbrs.append(sorted(near))
    return els, nbrs


@dataclass
class TotalColoring:
    """A (possibly partial) assignment of colors to vertices and edges."""

    kappa: int
    vertex_color: dict = field(default_factory=dict)
    edge_color: dict = field(default_factory=dict)

    def copy(self) -> "TotalColoring":
        return TotalColoring(self.kappa, dict(self.vertex_color), dict(self.edge_color))

    def color_of(self, element):
        if element[0] == "v":
            return self.vertex_color.get(element[1])
        return self.edge_color.get(edge_key(element[1], element[2]))

    def set_color(self, element, color) -> None:
        if element[0] == "v":
            self.vertex_color[element[1]] = color
        else:
            self.edge_color[edge_key(element[1], element[2])] = color

    def colors_used(self) -> int:
        vals = list(self.vertex_color.values()) + list(self.edge_color.values())
        return max(vals, default=0)

    def as_text(self) -> str:
        lines = [f"kappa {self.kappa}"]
        for v in sorted(self.vertex_color):
            lines.append(f"v {v} {self.vertex_color[v]}")
        for (u, v) in sorted(self.edge_color):
            lines.append(f"e {u} {v} {self.edge_color[(u, v)]}")
        return "\n".join(lines) + "\n"


def coloring_from_text(text: str) -> TotalColoring:
    kappa = None
    vc, ec = {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "kappa" and len(parts) == 2 and kappa is None:
                kappa = int(parts[1])
                continue
            if parts[0] == "v" and len(parts) == 3:
                table, key = vc, int(parts[1])
            elif parts[0] == "e" and len(parts) == 4:
                table, key = ec, edge_key(int(parts[1]), int(parts[2]))
            else:
                raise ValueError
            color = int(parts[-1])
        except ValueError:
            raise ColoringError(f"bad coloring line {ln}: {raw!r}") from None
        if key in table:
            raise ColoringError(f"coloring line {ln} repeats an entry: {raw!r}")
        table[key] = color
    if kappa is None:
        raise ColoringError("coloring file is missing its 'kappa K' header")
    return TotalColoring(kappa, vc, ec)


def _paint(c: TotalColoring, els: list, colors: list) -> TotalColoring:
    """Write a flat color list, indexed like els, into c."""
    for el, color in zip(els, colors):
        c.set_color(el, color)
    return c


def colors_at(g: SimpleGraph, c: TotalColoring, x) -> set:
    """The colors on x's edges, plus x's own color if it has one."""
    seen = {c.edge_color.get(edge_key(x, w)) for w in g.neighbors(x)}
    seen.add(c.vertex_color.get(x))
    seen.discard(None)
    return seen


# ---------------------------------------------------------------------------
# Verification


def verify(g: SimpleGraph, c: TotalColoring) -> list:
    """Every color outside 1..kappa as ("range", element, color), then all
    conflicting same-colored element pairs; empty means proper.  A partial
    coloring, or one that colors elements g lacks, is rejected outright."""
    vc, ec = c.vertex_color, c.edge_color
    edges = g.edges()
    missing = [("v", v) for v in g.vertices if v not in vc]
    missing += [("e",) + e for e in edges if e not in ec]
    if missing:
        raise ColoringError(f"coloring is partial; uncolored: {missing[:8]}")
    # nothing is missing, so equal counts mean nothing is extra
    if len(vc) != len(g.vertices) or len(ec) != len(edges):
        extra = [("v", v) for v in vc if v not in g.adj]
        known = set(edges)
        extra += [("e",) + e for e in ec if e not in known]
        raise ColoringError(f"coloring names elements the graph lacks: {extra[:8]}")
    bad = []
    used = {*vc.values(), *ec.values()}
    if used and not 1 <= min(used) <= max(used) <= c.kappa:
        for el in total_elements(g):
            color = c.color_of(el)
            if not 1 <= color <= c.kappa:
                bad.append(("range", el, color))
    for u, v in edges:
        if vc[u] == vc[v]:
            bad.append(("vv", u, v))
    for u, v in edges:
        cuv = ec[(u, v)]
        if cuv == vc[u]:
            bad.append(("ve", u, (u, v)))
        if cuv == vc[v]:
            bad.append(("ve", v, (u, v)))
    for v in g.vertices:
        nbrs = g.neighbors(v)
        row = [ec[edge_key(v, a)] for a in nbrs]
        if len(set(row)) == len(row):
            continue  # the edges at v all differ
        for i, a in enumerate(nbrs):
            for j in range(i + 1, len(nbrs)):
                if row[i] == row[j]:
                    bad.append(("ee", edge_key(v, a), edge_key(v, nbrs[j])))
    return bad


# ---------------------------------------------------------------------------
# Exact palette search


def _search(nbrs: list, order, palette):
    """Every proper coloring of the elements behind nbrs (indexed as in
    conflict_lists), each as a fresh flat color list.  Elements are
    assigned in `order`; the one at rank r tries the colors
    palette(assigned, r) in turn, with assigned[:r] the colors already
    given, by rank."""
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    earlier = [[rank[j] for j in nbrs[i] if rank[j] < r] for r, i in enumerate(order)]
    assigned = [0] * len(order)

    def fill(r: int):
        if r == len(order):
            yield [assigned[x] for x in rank]
            return
        taken = {assigned[j] for j in earlier[r]}
        for c in palette(assigned, r):
            if c not in taken:
                assigned[r] = c
                yield from fill(r + 1)

    return fill(0)


def exact_chi_tt(g: SimpleGraph, budget: int = 32) -> tuple:
    """The total chromatic number with a witness, by backtracking.  Refuses
    instances with more than `budget` elements; use solve_tcc or
    greedy_total for those."""
    size = len(g.vertices) + g.num_edges()
    if size > budget:
        raise ColoringError(
            f"{size} elements exceed the exact budget {budget}; "
            "use solve_tcc or greedy_total instead"
        )
    if not size:
        return 0, TotalColoring(0)
    els, conflicts = conflict_lists(g)
    order = sorted(range(len(els)), key=lambda i: (-len(conflicts[i]), i))

    def first_use(assigned, r):
        # colors are interchangeable: never introduce color c before c-1
        return range(1, min(kappa, max(assigned[:r], default=0) + 1) + 1)

    kappa = g.max_degree() + 1
    while True:
        colors = next(_search(conflicts, order, first_use), None)
        if colors is not None:
            return kappa, _paint(TotalColoring(kappa), els, colors)
        kappa += 1


# ---------------------------------------------------------------------------
# Greedy baseline


def greedy_total(g: SimpleGraph) -> TotalColoring:
    """First-fit in element order (vertices, then edges).  Always proper;
    the palette is whatever first-fit needs."""
    els, nbrs = conflict_lists(g)
    colors = [0] * len(els)
    for i, near in enumerate(nbrs):
        used = {colors[j] for j in near}
        color = 1
        while color in used:
            color += 1
        colors[i] = color
    return _paint(TotalColoring(max(colors, default=0)), els, colors)


# ---------------------------------------------------------------------------
# The two constructive extension steps


def _free_color(kappa: int, *used) -> int | None:
    taken = set().union(*used)
    for c in range(1, kappa + 1):
        if c not in taken:
            return c
    return None


def _recolor_vertex(g: SimpleGraph, c: TotalColoring, v, kappa: int) -> None:
    used = set()
    for w in g.neighbors(v):
        color = c.edge_color.get(edge_key(v, w))
        if color is not None:
            used |= {color, c.vertex_color[w]}
    color = _free_color(kappa, used)
    if color is None:
        raise ColoringError("vertex recoloring cannot fail: 2*deg(v) <= kappa-1")
    c.vertex_color[v] = color


def peel_kind(g: SimpleGraph, u, v, kappa: int) -> str | None:
    """The reducibility rule for the edge uv at palette kappa.  Its low end
    must have degree at most floor((kappa-1)/2); then "P1" when the degree
    sum is at most kappa, "P3" in the tight case kappa+1 (which also needs
    a triangle apex, left to the caller), and None otherwise."""
    du, dv = g.degree(u), g.degree(v)
    if 2 * min(du, dv) > kappa - 1:
        return None
    if du + dv <= kappa:
        return "P1"
    return "P3" if du + dv == kappa + 1 else None


def extend_p1(g: SimpleGraph, uv: tuple, c: TotalColoring, kappa: int) -> TotalColoring:
    """Extend a proper total coloring of g - uv to g, for an edge whose
    endpoint degrees sum to at most kappa (and 2*deg(v) <= kappa - 1):
    erase v, color uv with a color missing at both ends, recolor v."""
    u, v = uv
    if not g.has_edge(u, v):
        raise ColoringError(f"P1 precondition: {uv} is not an edge")
    if peel_kind(g, u, v, kappa) != "P1":
        raise ColoringError(
            f"P1 precondition: need deg(u)+deg(v) <= {kappa} and "
            f"2*deg(v) <= {kappa - 1}, got {g.degree(u)} and {g.degree(v)}"
        )
    if verify(delete_edge(g, uv), c):
        raise ColoringError("P1 precondition: the reduced coloring is not proper")
    return _extend(g, uv, None, c, kappa)


@dataclass(frozen=True)
class P3Certificate:
    """Diagnostic record produced if the triangle cascade runs dry.  The
    underlying argument promises this never happens when the preconditions
    hold and kappa >= Delta + 2, so a certificate there is a bug report.
    At kappa = Delta + 1 the checked preconditions can all hold and the
    cascade still run dry."""

    edge: tuple
    apex: object
    kappa: int
    u_used: frozenset
    v_used: frozenset
    w_used: frozenset


def extend_p3(g: SimpleGraph, uv: tuple, w, c: TotalColoring, kappa: int):
    """Extend a proper total coloring of g - uv to g across the triangle
    u-v-w, in the tight case deg(u) + deg(v) = kappa + 1.

    Cascade: a free color for uv if one exists; otherwise the usage sets
    partition the palette, so the color of wv moves onto uv and wv takes a
    fresh color; if even that is blocked, a color swap through uw opens
    room.  Returns the extended coloring, or a P3Certificate if every
    branch is exhausted; the supporting argument says that cannot happen
    when kappa >= Delta + 2, a hypothesis this function does not check."""
    u, v = uv
    if not g.has_edge(u, v):
        raise ColoringError(f"P3 precondition: {uv} is not an edge")
    if not (g.has_edge(u, w) and g.has_edge(v, w)):
        raise ColoringError(f"P3 precondition: {w} does not complete a triangle on {uv}")
    if peel_kind(g, u, v, kappa) != "P3":
        raise ColoringError(
            f"P3 precondition: need 2*deg(v) <= {kappa - 1} and deg(u)+deg(v) "
            f"exactly {kappa + 1}, got {g.degree(u)} and {g.degree(v)}"
        )
    if verify(delete_edge(g, uv), c):
        raise ColoringError("P3 precondition: the reduced coloring is not proper")
    return _extend(g, uv, w, c, kappa)


def _extend(g: SimpleGraph, uv: tuple, w, c: TotalColoring, kappa: int):
    """The extension step shared by P1 (w is None) and P3 (w the apex).
    g may hold edges that c leaves uncolored, uv among them; only colored
    edges count.  Picks the low end v, erases it, colors uv, recolors v."""
    u, v = uv
    used_u, used_v = colors_at(g, c, u), colors_at(g, c, v)
    # c is proper, so an end shows one color per colored edge plus its
    # own: as many colors as its degree with uv counted
    du, dv = len(used_u), len(used_v)
    if (w is None and 2 * dv > kappa - 1) or (w is not None and du < dv):
        u, v, used_u, used_v = v, u, used_v, used_u
    out = c.copy()
    out.kappa = kappa
    used_v.discard(out.vertex_color.pop(v, None))
    uvk = edge_key(u, v)
    theta = _free_color(kappa, used_u, used_v)
    if theta is not None:
        out.edge_color[uvk] = theta
        _recolor_vertex(g, out, v, kappa)
        return out
    if w is None:
        raise ColoringError("edge color cannot run out: deg sums leave slack")

    # the palette splits between u and v, so wv's color is fresh at u:
    # slide it onto uv and recolor wv
    wvk = edge_key(w, v)
    uwk = edge_key(u, w)
    pivot = out.edge_color[wvk]
    out.edge_color[uvk] = pivot
    del out.edge_color[wvk]
    fresh = _free_color(kappa, colors_at(g, out, w), colors_at(g, out, v))
    if fresh is not None:
        out.edge_color[wvk] = fresh
        _recolor_vertex(g, out, v, kappa)
        return out

    # undo the slide; swap through uw instead
    out.edge_color[wvk] = pivot
    del out.edge_color[uvk]
    used_w_full = colors_at(g, out, w)
    alpha = _free_color(kappa, used_u, used_w_full)
    if alpha is None:
        return P3Certificate(
            edge=uvk,
            apex=w,
            kappa=kappa,
            u_used=frozenset(used_u),
            v_used=frozenset(used_v),
            w_used=frozenset(used_w_full),
        )
    out.edge_color[uvk] = out.edge_color[uwk]
    out.edge_color[uwk] = alpha
    _recolor_vertex(g, out, v, kappa)
    return out


# ---------------------------------------------------------------------------
# The reduce-and-extend solver


@dataclass
class SolveResult:
    coloring: TotalColoring
    colors_used: int
    kappa: int
    trace: list

    @property
    def ok(self) -> bool:
        return self.colors_used <= self.kappa


def _repair_into(g: SimpleGraph, c: TotalColoring, kappa: int) -> bool:
    """Try to squeeze an over-palette proper coloring into 1..kappa by
    first-fit recoloring with single-element ejection.  Mutates c, keeping
    whatever progress was made; returns True on success.  Bounded (50
    attempts per element) and deterministic."""
    els, nbrs = conflict_lists(g)
    colors = [c.color_of(el) for el in els]
    budget = 50 * len(els)
    try:
        for _ in range(len(els)):
            over = sorted(
                (i for i in range(len(els)) if colors[i] > kappa),
                key=lambda i: (-colors[i], els[i]),
            )
            if not over:
                c.kappa = kappa
                return True
            progressed = False
            for i in over:
                if budget <= 0:
                    return False
                budget -= 1
                slot = _free_color(kappa, {colors[j] for j in nbrs[i]})
                if slot is not None:
                    colors[i] = slot
                    progressed = True
                    continue
                # eject one blocker: only a color held by a single neighbor
                # can be freed up by moving just that neighbor
                by_color = {}
                for j in nbrs[i]:
                    by_color.setdefault(colors[j], []).append(j)
                for gamma in range(1, kappa + 1):
                    holders = by_color.get(gamma, ())
                    if len(holders) != 1:
                        continue
                    j = holders[0]
                    j_used = {colors[m] for m in nbrs[j] if m != i}
                    alt = _free_color(kappa, j_used, {gamma})
                    if alt is None:
                        continue
                    colors[j] = alt
                    colors[i] = gamma
                    progressed = True
                    break
                if budget <= 0:
                    return False
            if not progressed:
                return False
        return False
    finally:
        _paint(c, els, colors)


def solve_tcc(g: SimpleGraph, kappa: int | None = None, budget: int = 32) -> SolveResult:
    """Aim for a proper total coloring within kappa (default: max degree
    plus two) by peeling reducible edges, solving a small core exactly,
    and extending back out; greedy first-fit plus bounded repair covers
    whatever the reduction cannot reach.  The returned coloring is always
    proper; only the palette bound can be missed, and the trace says how
    it went."""
    from .reduce import find_p3_edge, find_reducible_edge

    if kappa is None:
        kappa = g.max_degree() + 2
    if kappa < g.max_degree() + 1:
        raise ColoringError(
            f"no total coloring fits {kappa} colors: it needs at least "
            f"max degree + 1 = {g.max_degree() + 1}"
        )
    if budget < 0:
        raise ColoringError(f"the exact-core budget must be >= 0, got {budget}")
    trace = []

    peeled = []  # (edge, apex or None), outermost first
    current = g
    while len(current.vertices) + current.num_edges() > budget:
        e = find_reducible_edge(current, kappa)
        step = (e, None) if e is not None else find_p3_edge(current, kappa)
        if step is None:
            break
        peeled.append(step)
        current = delete_edge(current, step[0])

    size = len(current.vertices) + current.num_edges()
    if size <= budget:
        chi, witness = exact_chi_tt(current, budget=budget)
        trace.append(f"exact core: {size} elements, chi={chi}")
        witness.kappa = max(kappa, chi)
        result = witness
    else:
        trace.append("core too large for exact search; greedy first-fit")
        result = greedy_total(current)
        if result.colors_used() > kappa:
            if _repair_into(current, result, kappa):
                trace.append("repair squeezed the core into the target palette")
            else:
                trace.append("core repair exhausted; palette stays over target")
        result.kappa = max(kappa, result.colors_used())

    while peeled:
        e, apex = peeled.pop()
        ext = _extend(g, e, apex, result, result.kappa)
        if isinstance(ext, P3Certificate):
            trace.append(f"triangle cascade stalled at {e}; greedy fallback")
            current = build_graph([*result.edge_color, e], vertices=g.vertices)
            result = greedy_total(current)
            _repair_into(current, result, kappa)
            result.kappa = max(kappa, result.colors_used())
        else:
            result = ext
            via = "" if apex is None else f" via apex {apex}"
            trace.append(f"extended across {e}{via}")

    bad = verify(g, result)
    if bad:
        raise ColoringError(f"solve_tcc built an improper coloring: {bad[:4]}")
    used = result.colors_used()
    if used <= kappa:
        result.kappa = kappa
    return SolveResult(coloring=result, colors_used=used, kappa=kappa, trace=trace)

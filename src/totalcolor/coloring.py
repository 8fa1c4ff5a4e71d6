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
from heapq import heappop, heappush
from operator import itemgetter

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
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    at = {v: [] for v in g.vertices}  # the indices of the edges at v, ascending
    for i in range(n, len(els)):
        _, u, v = els[i]
        at[u].append(i)
        at[v].append(i)
    # a vertex: its neighbors, then its edges; indices ascend as ids do
    nbrs = [[index[w] for w in g.adj[v]] + at[v] for v in g.vertices]
    for i in range(n, len(els)):
        _, u, v = els[i]
        near = sorted(at[u] + at[v])
        near.remove(i)  # the edge is among the edges at each of its ends
        near.remove(i)
        nbrs.append([index[u], index[v], *near])
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
                if kappa < 0:
                    raise ValueError
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
        if el[0] == "v":
            c.vertex_color[el[1]] = color
        else:
            c.edge_color[el[1:]] = color
    return c


# ---------------------------------------------------------------------------
# Verification


def _is_proper(g: SimpleGraph, c: TotalColoring, absent=None, kappa=None) -> bool:
    """Whether c colors exactly the elements of g, less the edge `absent`
    (a canonical edge of g) if one is given, properly and within 1..c.kappa
    (and 1..kappa, if a kappa is given).  Odd input gives False, never an
    exception.

    Only one test runs in Python per edge entry: that its key is an edge
    of g, ends ascending, whose ends differ in color.  The key set, the
    color range and a color repeated at a vertex (its own and an edge's,
    or two edges') are each decided by one call over all entries."""
    vc, ec, adj = c.vertex_color, c.edge_color, g.adj
    kappa = c.kappa if kappa is None else min(kappa, c.kappa)
    m = g.num_edges() - (absent is not None)
    if len(ec) != m or absent in ec or vc.keys() != adj.keys():
        return False
    try:
        colors = [*vc.values(), *ec.values()]
        if colors and not (1 <= min(colors) and max(colors) <= kappa):
            return False
        for u, v in ec:
            if not (u < v and v in adj.get(u, ())) or vc[u] == vc[v]:
                return False
        # (x, color) for each color at vertex x: its own, then its edges'
        pairs = [*vc.items(), *zip(map(itemgetter(0), ec), ec.values())]
        pairs += zip(map(itemgetter(1), ec), ec.values())
        return len(set(pairs)) == len(pairs)
    except (TypeError, ValueError):  # a None color, a key that is no pair
        return False


def verify(g: SimpleGraph, c: TotalColoring) -> list:
    """Every color outside 1..kappa as ("range", element, color), then all
    conflicting same-colored element pairs; empty means proper.  A partial
    coloring, one that colors elements g lacks, or one with a None color is
    rejected outright.
    Cost: one pass over c when c is proper; the ordered listing if not."""
    if _is_proper(g, c):
        return []
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
    # the listing reads the conflict lists: an edge's opens with its two
    # ends, and a vertex's holds its neighbors, then as many edges
    els, nbrs = conflict_lists(g)
    n = len(g.vertices)
    colors = [vc[v] for v in g.vertices] + [ec[e] for e in edges]
    bad = []
    for el, color in zip(els, colors):
        if color is None:
            raise ColoringError(f"coloring gives {el} the color None")
        if not 1 <= color <= c.kappa:
            bad.append(("range", el, color))
    ends = [(i, *nbrs[i][:2]) for i in range(n, len(els))]
    bad += [("vv", *els[i][1:]) for i, a, b in ends if colors[a] == colors[b]]
    for i, *pair in ends:
        bad += [("ve", els[a][1], els[i][1:]) for a in pair if colors[i] == colors[a]]
    for near in nbrs[:n]:
        at = near[len(near) // 2 :]
        for x, i in enumerate(at):
            bad += [("ee", els[i][1:], els[j][1:]) for j in at[x + 1 :] if colors[i] == colors[j]]
    return bad


# ---------------------------------------------------------------------------
# Exact palette search


def _search(nbrs: list, order, palette):
    """Every proper coloring of the elements behind nbrs (indexed as in
    conflict_lists), each as a fresh flat color list.  Elements are
    assigned in `order`; the one at rank r tries the colors
    palette(assigned, r) in turn, with assigned[:r] the colors already
    given, by rank.

    Palette contract, which reproducible enumeration rests on: palette is
    called exactly once per search node entered, when it is entered, in
    depth-first order (a node's subtrees in the order of its palette), and
    never at a leaf; its result is iterated lazily.  The search is one
    loop over a stack of palette iterators, one per rank, so yielding a
    coloring climbs no generator frames."""
    size = len(order)
    rank = [0] * size
    for r, i in enumerate(order):
        rank[i] = r
    earlier = [[rank[j] for j in nbrs[i] if rank[j] < r] for r, i in enumerate(order)]
    assigned = [0] * size
    tries = [None] * size  # the palette iterator of each rank on the path
    taken = [None] * size  # the colors its earlier neighbors hold
    r = -1  # the deepest rank with a color
    while True:
        if r + 1 == size:
            yield [assigned[x] for x in rank]
        else:
            r += 1
            taken[r] = {assigned[j] for j in earlier[r]}
            tries[r] = iter(palette(assigned, r))
        # the next color at the deepest rank that has one left
        while r >= 0:
            held = taken[r]
            for c in tries[r]:
                if c not in held:
                    assigned[r] = c
                    break
            else:
                r -= 1
                continue
            break
        else:
            return


def exact_chi_tt(g: SimpleGraph, budget: int = 32) -> tuple:
    """The total chromatic number with a witness, by backtracking.  Refuses
    instances with more than `budget` elements; use solve_tcc or
    greedy_total for those."""
    if budget < 0:
        raise ColoringError(f"the exact budget must be >= 0, got {budget}")
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
    """First-fit in element order (vertices, then edges), always proper:
    the first coloring `_search` finds in that order when each element
    tries 1..(its conflicts + 1), which its earlier neighbors never use up,
    so the search never backtracks.  The palette is what first-fit needs.
    An edgeless graph is colored directly: every vertex gets color 1."""
    if not g.num_edges():
        return TotalColoring(1 if g.vertices else 0, dict.fromkeys(g.vertices, 1))
    els, nbrs = conflict_lists(g)
    colors = next(_search(nbrs, range(len(els)), lambda assigned, r: range(1, len(nbrs[r]) + 2)))
    return _paint(TotalColoring(max(colors, default=0)), els, colors)


# ---------------------------------------------------------------------------
# The two constructive extension steps


def _free_color(kappa: int, *used) -> int | None:
    taken = set().union(*used)
    for c in range(1, kappa + 1):
        if c not in taken:
            return c
    return None


def peel_kind(g: SimpleGraph, u, v, kappa: int) -> str | None:
    """The reducibility rule for the edge uv at palette kappa.  Its low end
    must have degree at most floor((kappa-1)/2); then "P1" when the degree
    sum is at most kappa, "P3" in the tight case kappa+1 (which also needs
    a triangle apex, left to the caller), and None otherwise."""
    return _peel_rule(g.degree(u), g.degree(v), kappa)


def _peel_rule(du: int, dv: int, kappa: int) -> str | None:
    """peel_kind for an edge whose ends have degrees du and dv."""
    if 2 * min(du, dv) > kappa - 1:
        return None
    if du + dv <= kappa:
        return "P1"
    return "P3" if du + dv == kappa + 1 else None


def extend_p1(g: SimpleGraph, uv: tuple, c: TotalColoring, kappa: int) -> TotalColoring:
    """Extend a proper total coloring of g - uv to g, for an edge whose
    endpoint degrees sum to at most kappa (and 2*deg(v) <= kappa - 1):
    erase v, color uv with a color missing at both ends, recolor v."""
    return _checked_extend(g, uv, None, c, kappa)


def _checked_extend(g: SimpleGraph, uv: tuple, w, c: TotalColoring, kappa: int):
    """extend_p1 (w is None) and extend_p3 (w the apex): check that uv is
    an edge, w completes a triangle on it, peel_kind gives the step's kind
    and c properly colors g - uv within 1..kappa, raising ColoringError if
    not; then _extend.  c is checked on g itself, uv absent; only a
    rejected c builds g - uv."""
    u, v = uv
    kind = "P1" if w is None else "P3"
    if not g.has_edge(u, v):
        raise ColoringError(f"{kind} precondition: {uv} is not an edge")
    if w is not None and not (g.has_edge(u, w) and g.has_edge(v, w)):
        raise ColoringError(f"P3 precondition: {w} does not complete a triangle on {uv}")
    if peel_kind(g, u, v, kappa) != kind:
        need = (
            f"deg(u)+deg(v) <= {kappa} and 2*deg(v) <= {kappa - 1}"
            if w is None
            else f"2*deg(v) <= {kappa - 1} and deg(u)+deg(v) exactly {kappa + 1}"
        )
        raise ColoringError(
            f"{kind} precondition: need {need}, got {g.degree(u)} and {g.degree(v)}"
        )
    if not _is_proper(g, c, edge_key(u, v), kappa):
        if verify(delete_edge(g, uv), c):
            raise ColoringError(f"{kind} precondition: the reduced coloring is not proper")
        raise ColoringError(f"{kind} precondition: the reduced coloring has a color above {kappa}")
    return _extend(g, uv, w, c.copy(), kappa)


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
    return _checked_extend(g, uv, w, c, kappa)


def _extend(g: SimpleGraph, uv: tuple, w, c: TotalColoring, kappa: int):
    """The extension step shared by P1 (w is None) and P3 (w the apex).
    g may hold edges that c leaves uncolored, uv among them; only colored
    edges count.  Picks the low end v, erases it, colors uv, recolors v.
    Works in place: c becomes the extended coloring, which is returned.
    A returned P3Certificate leaves c with the same colored edges, v's
    color erased.

    Cost: one pass over each end's row, and over the apex's row when the
    free-color branch fails; every color is the lowest one missing from
    sets those passes fill, found by one scan of 1..kappa.  Vertex colors
    of neighbors are read only at the end being recolored."""
    u, v = uv
    ec, vc, adj = c.edge_color, c.vertex_color, g.adj
    # the color of each end's edges, row by row, None where uncolored
    on_u = [ec.get((u, x) if u <= x else (x, u)) for x in adj[u]]
    on_v = [ec.get((v, x) if v <= x else (x, v)) for x in adj[v]]
    # c is proper, so an end shows one color per colored edge plus its
    # own: as many colors as its degree with uv counted
    du = len(on_u) - on_u.count(None) + (u in vc)
    dv = len(on_v) - on_v.count(None) + (v in vc)
    if (w is None and 2 * dv > kappa - 1) or (w is not None and du < dv):
        u, v, on_u, on_v = v, u, on_v, on_u
    c.kappa = kappa
    vc.pop(v, None)
    used_u, used_v = set(on_u), set(on_v)  # a None in them is no color
    used_u.add(vc.get(u))
    uvk = (u, v) if u <= v else (v, u)
    for theta in range(1, kappa + 1):
        if theta not in used_u and theta not in used_v:
            ec[uvk] = theta
            break
    else:
        if w is None:
            raise ColoringError("edge color cannot run out: deg sums leave slack")
        # the palette splits between u and v, so wv's color is fresh at u:
        # slide it onto uv and recolor wv with a color missing at w and v
        # (used_w still holds wv's old color, but so does used_v)
        wvk = (w, v) if w <= v else (v, w)
        used_w = {ec.get((w, x) if w <= x else (x, w)) for x in adj[w]}
        used_w.add(vc.get(w))
        pivot = ec.pop(wvk)
        ec[uvk] = pivot
        for fresh in range(1, kappa + 1):
            if fresh not in used_w and fresh not in used_v:
                ec[wvk] = fresh
                used_v.add(fresh)
                break
        else:
            # undo the slide; swap through uw instead
            ec[wvk] = pivot
            del ec[uvk]
            for alpha in range(1, kappa + 1):
                if alpha not in used_u and alpha not in used_w:
                    break
            else:
                return P3Certificate(
                    edge=uvk,
                    apex=w,
                    kappa=kappa,
                    u_used=frozenset(used_u - {None}),
                    v_used=frozenset(used_v - {None}),
                    w_used=frozenset(used_w - {None}),
                )
            uwk = (u, w) if u <= w else (w, u)
            ec[uvk] = ec[uwk]
            ec[uwk] = alpha
    # recolor v: every color on its colored edges and at their far ends
    used_v.add(ec[uvk])
    used_v.add(vc[u])
    for x, color in zip(adj[v], on_v):
        if color is not None:
            used_v.add(vc[x])
    for color in range(1, kappa + 1):
        if color not in used_v:
            vc[v] = color
            return c
    raise ColoringError("vertex recoloring cannot fail: 2*deg(v) <= kappa-1")


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


def _peel(g: SimpleGraph, kappa: int, limit: int) -> tuple:
    """(steps, core): up to `limit` peel steps, outermost first, and the
    graph they leave.  Each step is reduce.find_reducible_edge's (edge,
    None) or else reduce.find_p3_edge's (edge, apex) on the graph so far.

    Set rows and a heap of candidates per kind replace the rescans: a peel
    re-offers only the edges at its ends.  Degrees only fall, so a P1 edge
    stays P1 until peeled, and re-offering one already queued asks the
    rule nothing.  A P3 entry is checked when popped; one that fails never
    passes again, as degree sums fall and triangles vanish."""
    adj = {v: set(row) for v, row in g.adj.items()}
    p1, p3, queued = [], [], set()

    def offer(e):
        if e in queued:  # queued as P1, and P1 until peeled
            return
        kind = _peel_rule(len(adj[e[0]]), len(adj[e[1]]), kappa)
        if kind == "P3":
            heappush(p3, e)
        elif kind == "P1":
            queued.add(e)
            heappush(p1, e)

    for e in g.edges():
        offer(e)
    steps = []
    while len(steps) < limit:
        step = (heappop(p1), None) if p1 else None
        while step is None and p3:
            u, v = e = heappop(p3)
            if v in adj[u] and _peel_rule(len(adj[u]), len(adj[v]), kappa) == "P3":
                common = adj[u] & adj[v]
                step = (e, min(common)) if common else None
        if step is None:
            break
        steps.append(step)
        u, v = step[0]
        adj[u].remove(v)
        adj[v].remove(u)
        for x in (u, v):
            for y in adj[x]:
                offer(edge_key(x, y))
    rest = [(u, v) for u, row in adj.items() for v in row if u < v]
    return steps, build_graph(rest, vertices=g.vertices)


def solve_tcc(g: SimpleGraph, kappa: int | None = None, budget: int = 32) -> SolveResult:
    """Aim for a proper total coloring within kappa (default: max degree
    plus two) by peeling reducible edges, solving a small core exactly,
    and extending back out; greedy first-fit plus bounded repair covers
    whatever the reduction cannot reach.  The returned coloring is always
    proper; only the palette bound can be missed, and the trace says how
    it went.

    Cost: O(deg(u) + deg(v) + log m) per peel step uv, one build of the
    core, and per extension one pass over the rows at uv's ends (and
    apex), colored in place; the core search and the final verify see the
    whole graph, and an edgeless core is colored without a search."""
    delta = g.max_degree()
    if kappa is None:
        kappa = delta + 2
    if kappa < delta + 1:
        raise ColoringError(
            f"no total coloring fits {kappa} colors: it needs at least "
            f"max degree + 1 = {delta + 1}"
        )
    if budget < 0:
        raise ColoringError(f"the exact-core budget must be >= 0, got {budget}")
    trace = []

    size = len(g.vertices) + g.num_edges()  # the core's elements; a peel drops one
    peeled, current = _peel(g, kappa, size - budget)  # (edge, apex or None)
    size -= len(peeled)

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
        if isinstance(_extend(g, e, apex, result, result.kappa), P3Certificate):
            trace.append(f"triangle cascade stalled at {e}; greedy fallback")
            current = build_graph([*result.edge_color, e], vertices=g.vertices)
            result = greedy_total(current)
            _repair_into(current, result, kappa)
            result.kappa = max(kappa, result.colors_used())
        else:
            via = "" if apex is None else f" via apex {apex}"
            trace.append(f"extended across {e}{via}")

    bad = verify(g, result)
    if bad:
        raise ColoringError(f"solve_tcc built an improper coloring: {bad[:4]}")
    used = result.colors_used()
    if used <= kappa:
        result.kappa = kappa
    return SolveResult(coloring=result, colors_used=used, kappa=kappa, trace=trace)

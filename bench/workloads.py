"""The benchmark's four workloads.

Each workload builds its inputs from a seed (the same seed always gives
the same inputs), runs one op per input through the same library calls
the CLI verbs make, and checks every op's output.  The program under
test only ever sees generated text: `.emb` drawings or `.el` edge lists,
parsed afresh by every op so no lazily filled cache (such as
`EmbeddedGraph._faces`) is shared between ops.

Why these four:

- crossed_torus: crossed torus grids.  build_g_star rescans every face
  after each insertion, so augmentation dominates the op; the rule table
  and the report are small.
- stacked_triangulation: all faces are triangles, so augmentation scans
  but inserts nothing, while hub degrees in the hundreds make rule
  dispatch, parsing and the report dominate.  An augmentation speed-up
  must leave this workload flat.
- color_wheel_sum: solve_tcc on the high-degree family, where each of
  hundreds of P1 extensions re-verifies the whole graph and rebuilds it
  by edge deletion and insertion.
- extension_sweep: the same extension code over 15k checks on 1427 tiny
  instances, so per-call overhead dominates; the only workload that runs
  extend_p3, graph enumeration and coloring enumeration.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Callable

from totalcolor import augment, coloring, discharge, embedding, gen, graphs, reduce

DEFAULT_SEED = 1
INPUTS_PER_RUN = 3

# connected graphs on n = 1, 2, ... vertices up to isomorphism (OEIS A001349)
CONNECTED_GRAPHS = (1, 1, 2, 6, 21, 112, 853)


def _sub_seed(seed: int, k: int) -> int:
    return seed * 1009 + k


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# drawings: crossed_torus and stacked_triangulation


def crossed_torus_inputs(seed: int, size: tuple) -> list:
    side, pairs = size
    _, base = gen.gen_toroidal_grid(side, side)
    return [
        embedding.dump_embedding(gen.gen_crossed(base, pairs, seed=_sub_seed(seed, k)))
        for k in range(INPUTS_PER_RUN)
    ]


def stacked_triangulation_inputs(seed: int, size: int) -> list:
    return [
        embedding.dump_embedding(gen.gen_planar_triangulation(size, seed=_sub_seed(seed, k))[1])
        for k in range(INPUTS_PER_RUN)
    ]


def render_report(ledger) -> tuple:
    """final_report and its JSON text, as the discharge verb emits it."""
    report = discharge.final_report(ledger)
    return report, json.dumps(report, sort_keys=True)


def drawing_op(text: str) -> tuple:
    e = embedding.parse_embedding(text)
    g = gen.true_graph_of(e)
    a = augment.build_g_star(e, g)
    a.star.faces()
    ledger = discharge.discharge(a)
    claims = discharge.check_claims(a, ledger)
    report, report_json = render_report(ledger)
    return a, claims, report, report_json


def drawing_check(text: str, out: tuple) -> tuple:
    a, claims, report, report_json = out
    problems = []
    chi = 2 if a.star.surface == "plane" else 0
    if report["conserved"] is not True:
        problems.append("ledger reports charge not conserved")
    if report["final_total"] != str(-6 * chi):
        problems.append(f"final total {report['final_total']} != -6*chi = {-6 * chi}")
    if not augment.check_fixpoint(a):
        problems.append("G* still has an eligible insertion")
    digest = _digest(
        json.dumps(augment.augment_report(a), sort_keys=True),
        report_json,
        json.dumps(claims.counts(), sort_keys=True),
    )
    return problems, digest


# ---------------------------------------------------------------------------
# color_wheel_sum


def color_wheel_sum_inputs(seed: int, size: tuple) -> list:
    delta, n = size
    return [
        graphs.dump_edge_list(gen.gen_high_degree_P(delta, n, seed=_sub_seed(seed, k)))
        for k in range(INPUTS_PER_RUN)
    ]


def color_op(text: str) -> tuple:
    g = graphs.parse_edge_list(text)
    res = coloring.solve_tcc(g)
    conflicts = coloring.verify(g, res.coloring)
    return g, res, conflicts, res.coloring.as_text()


def color_check(text: str, out: tuple) -> tuple:
    g, res, conflicts, coloring_text = out
    problems = []
    if conflicts:
        problems.append(f"coloring has {len(conflicts)} conflicts")
    if res.colors_used > g.max_degree() + 2:
        problems.append(f"{res.colors_used} colors exceed delta+2 = {g.max_degree() + 2}")
    return problems, _digest(coloring_text, "\n".join(res.trace))


# ---------------------------------------------------------------------------
# extension_sweep


def extension_sweep_inputs(seed: int, size: tuple) -> list:
    """One (n_max, cap, seed) op input per sweep seed, plus the catalogue
    of connected graphs the sweep covers, as edge lists: the check reads it
    to count the instances the sweep must visit."""
    n_max, cap = size
    reduce.enum_graph_masks.cache_clear()
    catalogue = tuple(
        graphs.dump_edge_list(g)
        for n in range(2, n_max + 1)
        for g in reduce.enum_graphs(n, connected=True)
    )
    return [(n_max, cap, _sub_seed(seed, k), catalogue) for k in range(INPUTS_PER_RUN)]


def clear_enumeration_cache() -> None:
    # a CLI user pays the enumeration once per process, so every op does
    reduce.enum_graph_masks.cache_clear()


def sweep_op(inp: tuple):
    n_max, cap, seed, _ = inp
    return reduce.brute_validate_extensions(n_max, coloring_cap=cap, seed=seed)


def expected_instances(catalogue) -> int:
    """Instances brute_validate_extensions must visit: every edge of every
    graph, at palettes delta+2 and delta+3, whose low end is at most
    (kappa-1)//2 and which meets the P1 degree bound or the tight P3 case
    with a triangle apex."""
    count = 0
    for text in catalogue:
        g = graphs.parse_edge_list(text)
        for kappa in (g.max_degree() + 2, g.max_degree() + 3):
            for u, v in g.edges():
                du, dv = g.degree(u), g.degree(v)
                if min(du, dv) > (kappa - 1) // 2:
                    continue
                if du + dv <= kappa or (du + dv == kappa + 1 and g.common_neighbors(u, v)):
                    count += 1
    return count


def sweep_check(inp: tuple, rep) -> tuple:
    n_max, _, _, catalogue = inp
    problems = []
    if rep.failures:
        problems.append(f"{rep.failures} extension failures")
    graphs_expected = sum(CONNECTED_GRAPHS[1:n_max])
    if len(catalogue) != graphs_expected:
        problems.append(f"{len(catalogue)} connected graphs enumerated, expected {graphs_expected}")
    want = expected_instances(catalogue)
    if rep.instances != want:
        problems.append(f"{rep.instances} instances visited, expected {want}")
    counts = {
        "instances": rep.instances,
        "checks": rep.checks,
        "p1_checks": rep.p1_checks,
        "p3_checks": rep.p3_checks,
        "truncated": rep.truncated,
        "failures": rep.failures,
    }
    return problems, _digest(json.dumps(counts, sort_keys=True), rep.to_json())


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    inputs: Callable  # (seed, size) -> list of op inputs
    op: Callable  # op input -> output; the timed part
    check: Callable  # (op input, output) -> (problems, digest)
    full: object  # the input size the benchmark measures
    tiny: object  # the input size of the benchmark's own test
    prepare: Callable = lambda: None  # runs untimed before every op


WORKLOADS = {
    "crossed_torus": Workload(crossed_torus_inputs, drawing_op, drawing_check, (24, 70), (6, 4)),
    "stacked_triangulation": Workload(
        stacked_triangulation_inputs, drawing_op, drawing_check, 3000, 60
    ),
    "color_wheel_sum": Workload(color_wheel_sum_inputs, color_op, color_check, (12, 240), (12, 40)),
    "extension_sweep": Workload(
        extension_sweep_inputs, sweep_op, sweep_check, (6, 10), (4, 3), clear_enumeration_cache
    ),
}

# sha256 of each input's canonical output at DEFAULT_SEED and full size, in
# input order, measured at the commit that introduced the benchmark: an
# optimisation must reproduce them exactly
PINNED = {
    "crossed_torus": [
        "ded2f6c4c08f1c3b8bb60ce358f0df6fd5a8b04c80a1dad9e3df0fa536a39049",
        "b33ee6c42f9d3ee5e2da87d7150f353377a9c3cde55a83d474573cd58c9a3a3d",
        "fa675876365ad609425d408ed8f6d4af7fa399d3f4733b1918ae3036e8306b94",
    ],
    "stacked_triangulation": [
        "8ad9cdc0ebb948a2361271c23274b10f5a03dfa96af2758a81462a64191b306d",
        "c6f1b26867c17c051c41d660d722b8729441a40719f50bf0d45a580d17457c7a",
        "29bcfa4bb2279faaae2b1b3bc89e1bc5570e3866dbee4cefee68f477c3cd5825",
    ],
    "color_wheel_sum": [
        "2a2fad8c25f8adda9783d7bfff78b3023d3208da91bc414837dda1d68a5989b6",
        "5b24336ff48f129a504c34d7198e21e1b3682fdb0f74f75f8ddc16dd877cdd86",
        "0b402c0a1b55268c3c4b6fbe2c10fdcb4a75a01e6816caf1fb53f78ca6464394",
    ],
    "extension_sweep": [
        "befc4b2a4a2e1207f9712bbbd9bc3ea115adc8ca4fd23ea73cc7b3420d553d74",
    ]
    * INPUTS_PER_RUN,
}


# ---------------------------------------------------------------------------
# what the traced run wraps


def _calls(name: str):
    return lambda t, args, result: t.add(name)


def _count_darts(t, args, e) -> None:
    t.add("embedding.darts", len(e.twin))


def _count_insertions(t, args, a) -> None:
    t.add("augment.insertions", len(a.insertions))


def _count_rule_table(t, args, result) -> None:
    ledger = args[1]
    t.add("ruletable.hits", sum(1 for r in ledger.transfers if r.rule not in ("R1", "R2", "R3")))
    t.add("ruletable.guard_skips", len(ledger.skipped))
    t.add("discharge.transfers", len(ledger.transfers))


def _count_solve(t, args, res) -> None:
    t.add("coloring.colors_used", res.colors_used)
    t.add("coloring.peel_steps", sum(1 for line in res.trace if line.startswith("extended across")))


def _count_core(t, args, result) -> None:
    g = args[0]
    t.add("coloring.core_elements", len(g.vertices) + g.num_edges())


def _count_sweep(t, args, rep) -> None:
    t.add("reduce.instances", rep.instances)
    t.add("reduce.checks", rep.checks)
    t.add("reduce.p3_checks", rep.p3_checks)
    t.add("reduce.truncated_ratio", rep.truncated / rep.instances)


_here = sys.modules[__name__]
_verify_calls = _calls("coloring.verify_calls")
_edit_calls = _calls("graphs.edit_calls")

# (owner, attribute, span name, counter); each attribute is rebound where
# the library looks it up, so a function imported into several modules is
# listed once per importing module.  A span name of None counts calls only,
# under the counter named in the last field.
TRACE_TARGETS = [
    (embedding, "parse_embedding", "embedding.parse", _count_darts),
    (embedding.EmbeddedGraph, "faces", "embedding.faces", None),
    (gen, "true_graph_of", "gen.true_graph", None),
    (augment, "build_g_star", "augment.build_g_star", _count_insertions),
    (augment, "classify_vertices", "augment.classify", None),
    (discharge, "MatchContext", "ruletable.match_context", None),
    (discharge, "sender_matches", None, "ruletable.pattern_evals"),
    (discharge, "make_ledger", "discharge.ledger", None),
    (discharge, "apply_r1", "discharge.r1", None),
    (discharge, "apply_r2", "discharge.r2", None),
    (discharge, "apply_r3", "discharge.r3", None),
    (discharge, "apply_rule_table", "discharge.rule_table", _count_rule_table),
    (discharge, "check_claims", "discharge.claims", None),
    (_here, "render_report", "discharge.report", None),
    (graphs, "parse_edge_list", "graphs.parse", None),
    (coloring, "solve_tcc", "coloring.solve", _count_solve),
    (coloring, "exact_chi_tt", "coloring.core", _count_core),
    (coloring, "greedy_total", "coloring.core", _count_core),
    (coloring, "_repair_into", "coloring.core", None),
    (coloring, "extend_p1", "coloring.extend_p1", None),
    (reduce, "extend_p1", "coloring.extend_p1", None),
    (coloring, "extend_p3", "coloring.extend_p3", None),
    (reduce, "extend_p3", "coloring.extend_p3", None),
    (coloring, "verify", "coloring.verify", _verify_calls),
    (reduce, "verify", "coloring.verify", _verify_calls),
    (coloring, "delete_edge", "graphs.edit", _edit_calls),
    (coloring, "add_edge", "graphs.edit", _edit_calls),
    (reduce, "delete_edge", "graphs.edit", _edit_calls),
    (reduce, "find_reducible_edge", "reduce.find_edge", None),
    (reduce, "find_p3_edge", "reduce.find_edge", None),
    (reduce, "brute_validate_extensions", "reduce.sweep", _count_sweep),
    (reduce, "enum_graphs", "reduce.enum", None),
    (reduce, "_proper_colorings", "reduce.colorings", None),
]

SETUP_SPAN = "gen.inputs"
SPAN_LAYERS = sorted({name for _, _, name, _ in TRACE_TARGETS if name is not None})
COUNTERS = [
    "embedding.darts",
    "augment.insertions",
    "ruletable.pattern_evals",
    "ruletable.hits",
    "ruletable.guard_skips",
    "discharge.transfers",
    "coloring.verify_calls",
    "coloring.peel_steps",
    "coloring.core_elements",
    "coloring.colors_used",
    "graphs.edit_calls",
    "reduce.instances",
    "reduce.checks",
    "reduce.p3_checks",
    "reduce.truncated_ratio",
]

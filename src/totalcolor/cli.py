"""Command-line entry point.

One verb per invocation; every report is plain text on stdout, with
`--json PATH` mirroring it as machine-readable JSON.  Exit status 0 means
success, 1 a domain failure (a missed palette bound, a failed audit, a
violated coloring), and 2 an input error (bad file, bad flag, bad verb).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .augment import AugmentedGraph, augment_report, build_g_star
from .coloring import (
    TotalColoring,
    coloring_from_text,
    exact_chi_tt,
    solve_tcc,
    total_elements,
    verify,
)
from .discharge import discharge, final_report
from .embedding import EmbeddedGraph, euler_characteristic, parse_embedding
from .gen import FAMILIES, GenError, GenSpec, true_graph_of, write_corpus
from .graphs import SimpleGraph, check_property_P, parse_edge_list
from .reduce import audit_minimality
from .ruletable import parse_rule_table


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise SystemExit(f"error: cannot read {path}: not UTF-8 text") from None


def _load_graph(path: str) -> SimpleGraph:
    return parse_edge_list(_read(path))


def _load_embedding(path: str) -> EmbeddedGraph:
    return parse_embedding(_read(path))


def _emit_json(path: str | None, payload: dict) -> None:
    if path is None:
        return
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _probe_writable(path: str) -> None:
    """Raise the OSError that writing `path` would raise, leaving the file
    system as it was."""
    if os.path.exists(path):
        open(path, "a").close()  # append mode truncates nothing
    else:
        open(path, "x").close()
        os.remove(path)


def _violation_label(v: tuple) -> str:
    if v[0] == "range":
        el = v[1]
        name = f"v{el[1]}" if el[0] == "v" else f"e{el[1]}-{el[2]}"
        return f"{name} color {v[2]} outside the palette"
    if v[0] == "vv":
        return f"v{v[1]} ~ v{v[2]}"
    if v[0] == "ve":
        return f"v{v[1]} ~ e{v[2][0]}-{v[2][1]}"
    return f"e{v[1][0]}-{v[1][1]} ~ e{v[2][0]}-{v[2][1]}"


def _print_coloring(c: TotalColoring) -> None:
    print()
    print(c.as_text(), end="")


def _write_dot(path: str, a: AugmentedGraph) -> None:
    """Plain DOT export of the augmented drawing: crossing vertices are
    boxes, big vertices are doubled, new edges are dashed."""
    star = a.star
    lines = ["graph gstar {"]
    for v in star.vertices():
        cls = a.classification[v]
        shape = "box" if cls.kind == "crossing" else "ellipse"
        peripheries = 2 if cls.size_class == "big" else 1
        lines.append(
            f'  v{v} [shape={shape} peripheries={peripheries} label="v{v} ({cls.d2})"];'
        )
    for d, e in star.segments():
        style = "dashed" if star.is_new(d) else "solid"
        u, w = sorted((star.owner[d], star.owner[e]))
        lines.append(f"  v{u} -- v{w} [style={style}];")
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verbs


def _cmd_faces(args) -> int:
    e = _load_embedding(args.drawing)
    rows = sorted((e.face_vertices(f) for f in e.faces()), key=lambda t: (len(t), t))
    report = {
        "surface": e.surface,
        "vertices": len(e.rotation),
        "true_vertices": len(e.true_vertices()),
        "crossing_vertices": len(e.crossing_vertices()),
        "segments": e.num_segments(),
        "euler": euler_characteristic(e),
        "census": {str(s): n for s, n in e.face_census().items()},
        "faces": [list(r) for r in rows],
    }
    print(f"surface: {e.surface}")
    print(
        f"vertices: {report['vertices']} "
        f"({report['true_vertices']} true, {report['crossing_vertices']} crossing)"
    )
    print(f"segments: {report['segments']}")
    print(f"euler characteristic: {report['euler']}")
    print(f"faces: {len(rows)}")
    print("census:", " ".join(f"{s}:{n}" for s, n in report["census"].items()))
    for i, row in enumerate(rows):
        print(f"f{i}: {' '.join(str(v) for v in row)}")
    _emit_json(args.json_path, report)
    return 0


def _cmd_gstar(args) -> int:
    e = _load_embedding(args.drawing)
    g = true_graph_of(e)
    a = build_g_star(e, g)
    report = augment_report(a)
    big = [v for v, c in a.classification.items() if c.size_class == "big"]
    print(f"surface: {e.surface}")
    print(f"true vertices: {len(a.star.true_vertices())}")
    print(f"crossing vertices: {len(a.star.crossing_vertices())}")
    print(f"new edges: {report['new_edges']}")
    print("face census:", " ".join(f"{s}:{n}" for s, n in report["face_census"].items()))
    print("big vertices:", " ".join(f"v{v}" for v in big) if big else "(none)")
    for rec in report["insertions"]:
        print(f"insertion {rec['step']}: pair {rec['pair'][0]}-{rec['pair'][1]}")
    if args.dot:
        _write_dot(args.dot, a)
        print(f"dot written to {args.dot}")
    _emit_json(args.json_path, report)
    return 0


def _cmd_discharge(args) -> int:
    e = _load_embedding(args.drawing)
    g = true_graph_of(e)
    a = build_g_star(e, g)
    table = None
    if args.rules:
        table = parse_rule_table(_read(args.rules))
    ledger = discharge(a, table)
    report = final_report(ledger)
    print(f"surface: {report['surface']}")
    print(f"delta: {report['delta']}")
    print("rules applied:", " ".join(report["applied"]))
    print(f"initial total = {report['initial_total']}")
    print(f"total = {report['final_total']}")
    print("conserved:", "yes" if report["conserved"] else "NO")
    print(f"pool = {report['pool']}")
    print(f"transfers: {len(report['transfers'])}")
    negatives = [
        (label, charge)
        for label, charge in report["charges"].items()
        if charge.startswith("-")
    ]
    print(f"negative elements: {len(negatives)}")
    for label, charge in negatives:
        print(f"  {label} = {charge}")
    _emit_json(args.json_path, report)
    return 0 if report["conserved"] else 1


def _cmd_color(args) -> int:
    g = _load_graph(args.graph)
    result = solve_tcc(g, kappa=args.kappa, budget=args.budget)
    delta = g.max_degree()
    print(f"graph: {len(g.vertices)} vertices, {g.num_edges()} edges, delta {delta}")
    print(f"kappa: {result.kappa}")
    print(f"colors used: {result.colors_used}")
    print("within bound:", "yes" if result.ok else "NO")
    for line in result.trace:
        print(f"  {line}")
    _print_coloring(result.coloring)
    _emit_json(
        args.json_path,
        {
            "kappa": result.kappa,
            "colors_used": result.colors_used,
            "ok": result.ok,
            "trace": list(result.trace),
            "coloring_text": result.coloring.as_text(),
        },
    )
    return 0 if result.ok else 1


def _cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    chi, witness = exact_chi_tt(g, budget=args.budget)
    elements = len(total_elements(g))
    print(f"elements: {elements}")
    print(f"chi_tt = {chi}")
    _print_coloring(witness)
    _emit_json(
        args.json_path,
        {"elements": elements, "chi_tt": chi, "witness_text": witness.as_text()},
    )
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    c = coloring_from_text(_read(args.coloring))
    violations = verify(g, c)
    print(f"kappa: {c.kappa}")
    print(f"violations: {len(violations)}")
    for v in violations:
        print(f"  {_violation_label(v)}")
    _emit_json(
        args.json_path,
        {
            "kappa": c.kappa,
            "count": len(violations),
            "violations": [_violation_label(v) for v in violations],
        },
    )
    return 0 if not violations else 1


def _cmd_audit(args) -> int:
    g = _load_graph(args.graph)
    kappa = args.kappa if args.kappa is not None else g.max_degree() + 2
    audit = audit_minimality(g, kappa)
    results = [audit.results[name] for name in sorted(audit.results)]
    passed = audit.passed
    print(f"kappa: {audit.kappa}")
    for r in results:
        status = "skip" if not r.applicable else "pass" if r.passed else "FAIL"
        print(" ".join([f"{r.name}: {status}", *map(str, r.witnesses)]))
    print("minimal-candidate:", "yes" if passed else "no")
    _emit_json(
        args.json_path,
        {
            "kappa": audit.kappa,
            "passed": passed,
            "results": [
                {
                    "name": r.name,
                    "applicable": r.applicable,
                    "passed": r.passed,
                    "witnesses": [str(w) for w in r.witnesses],
                }
                for r in results
            ],
        },
    )
    return 0 if passed else 1


def _cmd_check_p(args) -> int:
    g = _load_graph(args.graph)
    report = check_property_P(g)
    print("property:", "holds" if report.holds else "violated")
    for v in report.violations:
        print(f"  {v.kind} on {v.vertices} with degrees {v.degrees}")
    _emit_json(
        args.json_path,
        {
            "holds": report.holds,
            "violations": [
                {"kind": v.kind, "vertices": list(v.vertices), "degrees": list(v.degrees)}
                for v in report.violations
            ],
        },
    )
    return 0 if report.holds else 1


def _cmd_gen(args) -> int:
    spec = GenSpec(args.family, tuple(args.params), seed=args.seed)
    if args.json_path is not None:
        # fail before the corpus is written, so a bad path leaves nothing behind
        _probe_writable(args.json_path)
    try:
        manifest = write_corpus([spec], args.out)
    except GenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if exc.achieved is not None else 2
    entry = manifest["entries"][0]
    print(f"wrote {entry['name']} to {args.out}")
    for fname in sorted(entry["sha256"]):
        print(f"  {fname} sha256 {entry['sha256'][fname]}")
    _emit_json(args.json_path, manifest)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="totalcolor",
        description="total coloring and discharging toolkit for drawings "
        "on the plane and torus",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument(
            "--json",
            dest="json_path",
            metavar="PATH",
            help="also write the report as JSON",
        )

    p = sub.add_parser("faces", help="trace the faces of a drawing")
    p.add_argument("drawing")
    common(p)
    p.set_defaults(fn=_cmd_faces)

    p = sub.add_parser("gstar", help="augment a drawing and classify vertices")
    p.add_argument("drawing")
    p.add_argument("--dot", metavar="PATH", help="write a DOT rendering")
    common(p)
    p.set_defaults(fn=_cmd_gstar)

    p = sub.add_parser("discharge", help="run the discharging rules")
    p.add_argument("drawing")
    p.add_argument("--rules", metavar="FILE", help="rule table (default: built-in)")
    common(p)
    p.set_defaults(fn=_cmd_discharge)

    p = sub.add_parser("color", help="color a graph within kappa colors")
    p.add_argument("graph")
    p.add_argument("--kappa", type=int, help="palette size (default: max degree + 2)")
    p.add_argument("--budget", type=int, default=32, help="exact-core element cap")
    common(p)
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("exact", help="exact total chromatic number")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=32, help="element cap")
    common(p)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("audit", help="deletion-minimality audit")
    p.add_argument("graph")
    p.add_argument("--kappa", type=int, help="palette size (default: max degree + 2)")
    common(p)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("check-p", help="clique and diamond degree caps")
    p.add_argument("graph")
    common(p)
    p.set_defaults(fn=_cmd_check_p)

    p = sub.add_parser("gen", help="generate a corpus instance")
    p.add_argument("family", help=" | ".join(FAMILIES))
    p.add_argument("params", type=int, nargs="*", help="family parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", metavar="DIR")
    common(p)
    p.set_defaults(fn=_cmd_gen)

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad verbs/flags and 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SystemExit as exc:  # unreadable files
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:  # unwritable output paths; _read reports reads
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        # parse errors and domain-precondition errors name their line/section
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

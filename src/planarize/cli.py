"""Command-line entry point.

Subcommands: reduce, certify, oracle, lp, minor, gen.  Reports
are JSON on stdout with rationals serialized as "p/q" strings and
vertex sets as sorted arrays.  Exit codes: 0 success, 1 input or usage
error, 2 failed internal assertion (bound violation, negative ledger
charge, failed certificate); assertions are never downgraded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import certify, generators, graphio, lp as lpmod, minors, oracle
from .errors import GraphError, LedgerError, BoundViolation, CaseAnalysisIncomplete, CertificateFailure
from .multigraph import MultiGraph
from .planar import ChargeParams
from .reducers import REDUCERS, certificates

_ASSERTION_ERRORS = (LedgerError, BoundViolation, CaseAnalysisIncomplete, CertificateFailure)


def _frac(x: Fraction) -> str:
    return lpmod.format_rational(x)


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path: str) -> MultiGraph:
    return graphio.read_graph(path)


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load(args.input)
    run, _ = REDUCERS[args.alg]
    t0 = time.perf_counter()
    sol, ledger = run(g, args.params)
    wall = time.perf_counter() - t0

    # The report recomputes the bound from n, m, |S| rather than trusting
    # the reducer's own verdict.
    satisfied = sol.bound_den * len(sol.s) >= sol.bound_den * sol.n - sol.bound_num * sol.m
    verdicts = certificates(args.alg, g, sol.s)
    report = {
        "algorithm": args.alg,
        "n": sol.n,
        "m": sol.m,
        "s": sorted(sol.s),
        "s_size": len(sol.s),
        "bound_ratio": f"{sol.bound_num}/{sol.bound_den}",
        "bound_value": _frac(sol.bound_value()),
        "bound_satisfied": satisfied,
        "certificates": verdicts,
        "steps": len(sol.trace),
        "wall_time_s": round(wall, 6),
    }
    if ledger is not None:
        report["ledger"] = {
            "params": {k: _frac(v) for k, v in ledger.params.as_assignment().items()},
            "steps": [
                {"step": e.index, "case": e.label, "charge": _frac(e.charge)}
                for e in ledger.entries
            ],
            "min_charge": _frac(ledger.min_charge()) if ledger.entries else None,
        }
    _emit(report, args.output)
    if not satisfied:
        raise BoundViolation(f"{args.alg}: |S|={len(sol.s)} below bound")
    if not all(verdicts.values()):
        raise CertificateFailure(f"{args.alg}: certificate verdicts {verdicts}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    g = _load(args.input)
    s = graphio.read_vertex_set(args.set) if args.set else set(g.vertices())
    sub = certify.induced_subgraph(g, s)
    classes = certify.classify_all(sub)
    report = {
        "n": sub.n,
        "m": sub.m,
        "s": sorted(s),
        "pseudoforest": certify.is_pseudoforest(sub),
        "partial_2_tree": certify.is_partial_2_tree(sub),
        "planar": certify.is_planar(sub),
        "components": [
            {"kind": c.kind.value, "reason": c.reason} for c in classes
        ],
    }
    _emit(report, args.output)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _load(args.input)
    prop = oracle.PropertyId(args.property)
    size, witness = oracle.max_induced(g, prop)
    report = {
        "property": prop.value,
        "n": g.n,
        "m": g.m,
        "max_size": size,
        "witness": sorted(witness),
    }
    _emit(report, args.output)
    return 0


def _cmd_lp(args: argparse.Namespace) -> int:
    problem = lpmod.default_lp()
    if args.lp_cmd == "check":
        point = (
            ChargeParams.parse(args.params).as_assignment()
            if args.params
            else lpmod.paper_point()
        )
        rows = lpmod.check_feasible(problem, point)
        report = {
            "assignment": {k: _frac(v) for k, v in point.items()},
            "feasible": all(r.satisfied for r in rows),
            "slacks": [
                {"name": r.name, "slack": _frac(r.slack), "tight": r.tight}
                for r in rows
            ],
        }
        _emit(report, args.output)
        return 0
    for name in args.drop or []:
        problem = problem.drop(name)
    value, point = lpmod.solve(problem)
    report = {
        "optimum": _frac(value),
        "assignment": {k: _frac(point[k]) for k in lpmod.VARIABLES},
        "dropped": args.drop or [],
    }
    _emit(report, args.output)
    return 0


def _cmd_minor(args: argparse.Namespace) -> int:
    g = _load(args.input)
    result = minors.level_contract(g, root=args.root)
    density = minors.verify_minor_density(result)
    report = {
        "n": result.input_n,
        "m": result.input_m,
        "girth": result.input_girth,
        "ell": result.ell,
        "offset": result.offset_a,
        "n_prime": result.n_prime,
        "m_prime": result.m_prime,
        "edge_identity": result.m_prime == result.input_m - result.input_n + result.n_prime,
        "surplus": density.surplus,
        "five_n_over_g": density.five_n_over_g,
        "kept": list(result.kept),
        "minor_edges": [[u, v] for u, v, _ in result.minor.iter_edges()],
    }
    _emit(report, args.output)
    return 0


def _family_spec(args: argparse.Namespace) -> generators.FamilySpec:
    fam = args.family
    if fam == "k33xt":
        return generators.FamilySpec(
            "disjoint-copies",
            inner=generators.FamilySpec("complete-bipartite", (3, 3)),
            copies=args.t,
        )
    if fam == "k5xt":
        return generators.FamilySpec(
            "disjoint-copies", inner=generators.FamilySpec("complete", (5,)), copies=args.t
        )
    if fam == "random-regular":
        return generators.FamilySpec(
            "random-regular", (args.n, args.d), seed=args.seed if args.seed is not None else 0
        )
    if fam == "cycle":
        return generators.FamilySpec("cycle", (args.n,))
    if fam == "complete":
        return generators.FamilySpec("complete", (args.n,))
    if fam == "fixture":
        return generators.FamilySpec("fixture", fixture=args.name)
    raise GraphError(f"unknown family {fam!r}")


def _cmd_gen(args: argparse.Namespace) -> int:
    g = generators.generate(_family_spec(args))
    text = graphio.write_graph_text(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.json:
        # With the graph on stdout the summary goes to stderr, so that
        # stdout stays a graph file.
        summary = json.dumps({"n": g.n, "m": g.m, "components": len(g.components())}, indent=2)
        print(summary, file=sys.stdout if args.output else sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="planarize", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("reduce", help="run a reducer and report S, bound, certificates")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--alg", choices=list(REDUCERS), required=True)
    p.add_argument("--params", help="charge params 'e,c3,c4,tau' as rationals; planar only")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("certify", help="check properties of G[S] for a given S file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-s", "--set", help="file with one vertex id per line (default: all)")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("oracle", help="brute-force maximum induced subgraph")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.add_argument(
        "--property",
        default="pseudoforest",
        choices=[prop.value for prop in oracle.PropertyId],
    )
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("lp", help="charge-analysis linear program")
    p.add_argument("lp_cmd", choices=["check", "solve"])
    p.add_argument("--params", help="assignment 'e,c3,c4,tau' (check only)")
    p.add_argument("--drop", action="append", help="constraint name to remove (solve only)")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_lp)

    p = sub.add_parser("minor", help="girth-based spanning-tree level contraction")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--root", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_minor)

    p = sub.add_parser("gen", help="generate a family graph as an edge list")
    p.add_argument(
        "family",
        choices=["k33xt", "k5xt", "random-regular", "cycle", "complete", "fixture"],
    )
    p.add_argument("--t", type=int, default=1, help="copy count for k33xt/k5xt")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("name", nargs="?", default="petersen", help="fixture name")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_gen)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _ASSERTION_ERRORS as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: reduce, certify, oracle, lp, minor, gen.  Reports
are JSON on stdout with rationals serialized as "p/q" strings and
vertex sets as sorted arrays.  Exit codes: 0 success, 1 input or usage
error, 2 failed internal assertion (bound violation, negative ledger
charge, failed certificate, a trace that does not replay, a reducer
fault); assertions are never downgraded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import certify, generators, graphio, lp as lpmod, minors, oracle
from .errors import ASSERTION_ERRORS, BoundViolation, CertificateFailure, GraphError, ReducerFault
from .planar import ChargeParams
from .reducers import REDUCERS, checked_run


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = graphio.read_graph(args.input)
    t0 = time.perf_counter()
    run = checked_run(g, args.alg, args.params)
    wall = time.perf_counter() - t0

    sol, ledger = run.solution, run.ledger
    satisfied = run.slack >= 0
    report = {
        "algorithm": args.alg,
        "n": g.n,
        "m": g.m,
        "s": sorted(sol.s),
        "s_size": len(sol.s),
        "bound_ratio": f"{sol.bound_num}/{sol.bound_den}",
        "bound_value": lpmod.format_rational(run.bound),
        "bound_satisfied": satisfied,
        "replayed": run.replayed,
        "certificates": run.certificates,
        "steps": len(sol.trace),
        "wall_time_s": round(wall, 6),
    }
    if ledger is not None:
        report["ledger"] = {
            "params": {
                k: lpmod.format_rational(v) for k, v in ledger.params.as_assignment().items()
            },
            "steps": [
                {"step": e.index, "case": e.label, "charge": lpmod.format_rational(e.charge)}
                for e in ledger.entries
            ],
            "min_charge": lpmod.format_rational(ledger.min_charge()) if ledger.entries else None,
        }
    _emit(report, args.output)
    if not run.replayed:
        raise ReducerFault(f"{args.alg}: its trace does not replay: {run.mismatch}")
    if not satisfied:
        raise BoundViolation(f"{args.alg}: |S|={len(sol.s)} below bound")
    if not all(run.certificates.values()):
        raise CertificateFailure(f"{args.alg}: certificate verdicts {run.certificates}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    g = graphio.read_graph(args.input)
    s = graphio.read_vertex_set(args.set) if args.set else set(g.vertices())
    sub = certify.induced_subgraph(g, s)
    report = {"n": sub.n, "m": sub.m, "s": sorted(s)}
    for _, certificates in REDUCERS.values():
        report.update(certificates(sub))
    _emit(report, args.output)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = graphio.read_graph(args.input)
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
    if args.lp_cmd == "solve" and args.params is not None:
        raise GraphError("lp solve takes no --params; they apply to lp check only")
    if args.lp_cmd == "check" and args.drop:
        raise GraphError("lp check takes no --drop; it applies to lp solve only")
    if args.lp_cmd == "check":
        point = (
            ChargeParams.parse(args.params).as_assignment()
            if args.params is not None
            else lpmod.paper_point()
        )
        rows = lpmod.check_feasible(problem, point)
        report = {
            "assignment": {k: lpmod.format_rational(v) for k, v in point.items()},
            "feasible": all(r.satisfied for r in rows),
            "slacks": [
                {"name": r.name, "slack": lpmod.format_rational(r.slack), "tight": r.tight}
                for r in rows
            ],
        }
        _emit(report, args.output)
        return 0
    for name in args.drop or []:
        problem = problem.drop(name)
    value, point = lpmod.solve(problem)
    report = {
        "optimum": lpmod.format_rational(value),
        "assignment": {k: lpmod.format_rational(point[k]) for k in lpmod.VARIABLES},
        "dropped": args.drop or [],
    }
    _emit(report, args.output)
    return 0


def _cmd_minor(args: argparse.Namespace) -> int:
    g = graphio.read_graph(args.input)
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


_FAMILIES = {
    "k33xt": lambda a: generators.disjoint_copies(generators.complete_bipartite(3, 3), a.t),
    "k5xt": lambda a: generators.disjoint_copies(generators.complete(5), a.t),
    "random-regular": lambda a: generators.random_regular(a.n, a.d, a.seed or 0),
    "cycle": lambda a: generators.cycle(a.n),
    "complete": lambda a: generators.complete(a.n),
    "fixture": lambda a: generators.fixture(a.name),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    g = _FAMILIES[args.family](args)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused."""
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
    p.add_argument("family", choices=list(_FAMILIES))
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
    except ASSERTION_ERRORS as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

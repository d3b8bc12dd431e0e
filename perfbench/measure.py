"""Set-up, passes and the metrics computed from them.

Imported by run.py after it has put the checkout's ``src/`` on sys.path.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import hostspeed
import pipeline as pl
import workloads as wl

SETUPS = 5

CASE_LABELS = {
    "pseudoforest": (
        "Preprocess", "HarvestIsolated", "Leaf", "Deg2NoTriangle", "DeltaA", "DeltaB",
        "DeltaC", "DeltaD", "Deg3AdjDeg4", "ThreeRegular", "FourRegA", "FourRegB",
        "FourRegC1", "FourRegC2", "FourRegC3", "FourRegC4",
    ),
    "tw2": ("Preprocess", "HarvestIsolated", "ContractDeg12", "DeleteAdjDeg3", "DeleteMaxDeg"),
    "planar": (
        "Preprocess", "HarvestIsolated", "Deg2Contract", "PlanarAccept",
        "ThreeRegularDelete", "Deg5Delete", "MixedDelete", "FourRegularDelete",
    ),
}
DOUBLING_LAYERS = ("reduce", "replay", "certify")
RUNGS = 3
SETUP_LAYERS = ("generators.generate", "graphio.write")
PASS_LAYERS = tuple(x for x in pl.LAYERS if x not in SETUP_LAYERS + ("cli.reduce",))

END_TO_END = {
    "edges_per_s": "edges/s",
    "graph_ms.p50": "ms",
    "graph_ms.p99": "ms",
    "setup_s": "s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    out: dict[str, str] = {"host.factor": "ratio"}
    for layer in pl.LAYERS:
        out[f"{layer}_s"] = "s"
        out[f"{layer}.self_s"] = "s"
    out["share.reduce"] = "ratio"
    out["share.check"] = "ratio"
    out["outside.share"] = "ratio"
    out["trace.overhead"] = "ratio"
    for r in wl.REDUCERS:
        out[f"check_ratio.{r}"] = "ratio"
    for layer in DOUBLING_LAYERS:
        for fam in wl.FAMILIES:
            for k in range(1, RUNGS):
                out[f"doubling.{layer}.{fam}.r{k}"] = "ratio"
    for r in wl.REDUCERS:
        out[f"steps.{r}"] = "count"
        for label in CASE_LABELS[r]:
            out[f"cases.{r}.{label}"] = "count"
        out[f"s_size.{r}"] = "count"
        out[f"slack.{r}"] = "vertices"
    out["edge_units"] = "count"
    out["planar.ledger.min_charge"] = "units"
    out["planar.ledger.tight_steps"] = "count"
    out["fail_rate"] = "ratio"
    for layer in pl.FAIL_LAYERS:
        out[f"fail.{layer}"] = "count"
    out["trace_digest"] = "hash"
    return out


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


@dataclass
class Pass:
    """Results of one pass over (input, reducer) pairs, in order.

    A full pass runs every pair once; a top-up pass runs some of them.
    """

    results: list
    index: list[int]  # the pair each result is for
    wall: float  # wall seconds, kernel calls included
    tracer: pl.Tracer
    span: tuple[float, float]  # clock() at the start and the end
    # Host factors, set once the run's samples are all in: the pass's own,
    # and one per checked run.
    factor: float = 1.0
    factors: list[float] = field(default_factory=list)

    def set_factors(self, meter: hostspeed.HostMeter) -> None:
        self.factor = meter.factor(*self.span)
        self.factors = [meter.factor(r.started, r.started + r.seconds) for r in self.results]

    def drop_outputs(self) -> None:
        """Keep only what a later pass is timed and compared on, so that the
        process's memory does not grow with the number of passes."""
        for r in self.results:
            r.s, r.cases, r.charges, r.certificates = [], Counter(), [], {}



def run_pass(inputs, traced: bool, meter: hostspeed.HostMeter, only=None) -> Pass:
    """Every pair once, or only the pairs listed in ``only``."""
    pairs = [(i, r) for i, inp in enumerate(inputs) for r in inp.reducers]
    index = list(range(len(pairs))) if only is None else only
    tracer = pl.Tracer(traced, meter.clock)
    t0, c0 = time.perf_counter(), meter.clock()
    with tracer.span("pass"):
        results = [pl.checked_run(pairs[j][0], inputs[pairs[j][0]], pairs[j][1], tracer)
                   for j in index]
    return Pass(results, index, time.perf_counter() - t0, tracer, (c0, meter.clock()))


def top_up(inputs, passes, meter: hostspeed.HostMeter, deadline: float) -> list[Pass]:
    """Use the time left after the last full pass on more samples.

    Each top-up pass runs, in pass order, the pairs that still fit before
    the deadline by their median time so far, until none fits.  On the
    ladder workloads this gives the small and middle rungs, which set
    graph_ms.p50, several samples each within one full pass's budget.
    """
    estimate = per_pair(passes, nominal=False)
    out = []
    while True:
        left = deadline - time.perf_counter()
        chosen, total = [], 0.0
        for j, t in enumerate(estimate):
            t *= 1 + hostspeed.KERNEL_SHARE
            if total + t <= left:
                chosen.append(j)
                total += t
        if not chosen:
            return out
        out.append(run_pass(inputs, False, meter, chosen))
        out[-1].drop_outputs()


def per_pair(passes, nominal: bool = True) -> list[float]:
    """Each pair's median seconds over every pass that ran it; nominal-host
    seconds, or wall-clock ones."""
    samples: dict[int, list[float]] = {}
    for p in passes:
        for k, j in enumerate(p.index):
            t = p.results[k].seconds
            samples.setdefault(j, []).append(t / p.factors[k] if nominal else t)
    return [_median(samples[j]) for j in range(len(passes[0].results))]


def throughput(passes, nominal: bool = True) -> tuple[float, list[float]]:
    """Edge units per second of a full pass, from each pair's median time."""
    per_run = per_pair(passes, nominal)
    units = sum(r.units for r in passes[0].results)
    busy = sum(per_run)
    return (units / busy if busy else 0.0), per_run


def count_failures(passes) -> Counter:
    """Failed runs per layer, plus runs whose output differs from pass 0."""
    fails: Counter = Counter(r.failed for p in passes for r in p.results if r.failed)
    for p in passes[1:]:
        for r, j in zip(p.results, p.index):
            r0 = passes[0].results[j]
            if not r.failed and not r0.failed and r.digest != r0.digest:
                print(f"FAIL reduce: run {r.input_index} ({r.reducer}) differs between passes",
                      file=sys.stderr)
                fails["reduce"] += 1
    return fails


def end_to_end(passes, setup_times, meter, lines) -> dict[str, float]:
    eps, per_run = throughput(passes)
    q = statistics.quantiles([t * 1000 for t in per_run], n=100, method="inclusive")
    if len(per_run) <= 20:
        lines.append("graph ms per run " + " ".join(f"{t * 1000:.1f}" for t in per_run))
    wall_eps, _ = throughput(passes, nominal=False)
    lines.append(f"wall clock: edges/s {wall_eps:.1f}, "
                 f"setup_s {_median([dt for _, dt in setup_times]):.4f}")
    return {
        "edges_per_s": eps,
        "graph_ms.p50": q[49],
        "graph_ms.p99": q[98],
        "setup_s": _median([dt / meter.factor(t0, t0 + dt) for t0, dt in setup_times]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _run_layers(p: Pass) -> list[dict[str, float]]:
    """Per checked run of a traced pass: nominal-host seconds in reduce, replay and certify."""
    out = []
    for kids, f in zip(p.tracer.children("run"), p.factors):
        reduce = sum(kids[name] for name, _, _ in pl.REDUCE.values())
        certify = sum(v for k, v in kids.items() if k.startswith("certify."))
        out.append({"reduce": reduce / f, "replay": kids["solution.replay"] / f,
                    "certify": certify / f})
    return out


def _scaled(tracer: pl.Tracer, factor: float) -> tuple[Counter, Counter]:
    """The tracer's totals and self times in nominal-host seconds."""
    return tuple(Counter({k: v / factor for k, v in c.items()}) for c in tracer.totals())


def per_layer(inputs, setups, untraced, traced, cli, host, lines) -> dict[str, float]:
    """``setups`` and ``cli`` are (tracer, host factor) pairs."""
    m: dict[str, float] = {"host.factor": host}
    totals = [_scaled(p.tracer, p.factor) for p in traced]
    for layer in pl.LAYERS:
        if layer in SETUP_LAYERS:
            src = [_scaled(t, f) for t, f in setups]
        elif layer == "cli.reduce":
            src = [_scaled(*cli)]
        else:
            src = totals
        m[f"{layer}_s"] = _median([t[layer] for t, _ in src])
        m[f"{layer}.self_s"] = _median([own[layer] for _, own in src])

    def share(names) -> float:
        return _median([sum(t[x] for x in names) / t["pass"] for t, _ in totals])

    m["share.reduce"] = share([name for name, _, _ in pl.REDUCE.values()])
    m["share.check"] = share([x for x in PASS_LAYERS if x.startswith(("solution.", "certify."))])
    m["outside.share"] = 1 - share(PASS_LAYERS)
    eps_u, _ = throughput(untraced)
    eps_t, _ = throughput(traced)
    m["trace.overhead"] = eps_u / eps_t - 1 if eps_t else 0.0
    lines.append(f"tracing: untraced {eps_u:.1f} edges/s, traced {eps_t:.1f} edges/s "
                 f"over {len(untraced)} + {len(traced)} passes")

    results = traced[0].results
    runs = [_run_layers(p) for p in traced]
    layer_of = [
        {k: _median([r[j][k] for r in runs]) for k in DOUBLING_LAYERS} for j in range(len(results))
    ]
    for r in wl.REDUCERS:
        idx = [j for j, res in enumerate(results) if res.reducer == r]
        red = sum(layer_of[j]["reduce"] for j in idx)
        chk = sum(layer_of[j]["replay"] + layer_of[j]["certify"] for j in idx)
        m[f"check_ratio.{r}"] = chk / red if red else 0.0
        if idx:
            lines.append(f"check_ratio {r}: check {chk:.4f} s / reduce {red:.4f} s")
    for layer in DOUBLING_LAYERS:
        for fam in wl.FAMILIES:
            base = [layer_of[j][layer] for j, res in enumerate(results)
                    if inputs[res.input_index].family == fam]
            ratios = [base[k] / base[k - 1] if k < len(base) and base[k - 1] else 0.0
                      for k in range(1, RUNGS)]
            for k, ratio in enumerate(ratios, 1):
                m[f"doubling.{layer}.{fam}.r{k}"] = ratio
            if base:
                lines.append(f"doubling {layer} {fam}: "
                             + " -> ".join(f"{t:.4f} s" for t in base)
                             + "  ratios " + " ".join(f"{x:.3f}" for x in ratios))
    return m


def counts(results) -> dict[str, float]:
    m: dict[str, float] = {}
    ok = [r for r in results if not r.failed]
    for r in wl.REDUCERS:
        mine = [x for x in ok if x.reducer == r]
        cases: Counter = Counter()
        for x in mine:
            cases.update(x.cases)
        unknown = set(cases) - set(CASE_LABELS[r])
        if unknown:
            raise SystemExit(f"perfbench: unlisted {r} case labels {sorted(unknown)}")
        m[f"steps.{r}"] = sum(cases.values())
        for label in CASE_LABELS[r]:
            m[f"cases.{r}.{label}"] = cases[label]
        m[f"s_size.{r}"] = sum(len(x.s) for x in mine)
        m[f"slack.{r}"] = float(min((x.slack for x in mine), default=Fraction(0)))
    m["edge_units"] = sum(r.units for r in results)
    charges = [c for x in ok for c in x.charges]
    m["planar.ledger.min_charge"] = float(min(charges, default=Fraction(0)))
    m["planar.ledger.tight_steps"] = sum(1 for c in charges if c == 0)
    return m


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def measure(args, workdir: str) -> tuple[bool, int, int, dict[str, float], dict[str, str], list[str]]:
    """Returns correct, attempted, failed, metrics, their units, and report lines."""
    meter = hostspeed.HostMeter()
    meter.start()
    try:
        return _measure(args, workdir, meter)
    finally:
        meter.stop()


def _measure(args, workdir: str, meter: hostspeed.HostMeter):
    lines: list[str] = []
    setups, setup_times, digests = [], [], set()

    def setup():
        """Generate and write the inputs again; they must not change."""
        tracer = pl.Tracer(args.trace == 1, meter.clock)
        t0 = meter.clock()
        with tracer.span("setup"):
            inputs = wl.build_inputs(args.workload, args.seed, args.scale, workdir, tracer)
        setup_times.append((t0, meter.clock() - t0))
        setups.append(tracer)
        digests.add(_sha256(f"{inp.name} {inp.digest}" for inp in inputs))
        return inputs

    # Untraced and traced passes alternate, so host drift hits both alike.
    # At least one pass runs.  The set-ups after the first are spread
    # between passes, so one slow moment of the host cannot slow them all.
    inputs = setup()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(inputs, False, meter))
        if len(untraced) > 1:
            untraced[-1].drop_outputs()
        if args.trace:
            traced.append(run_pass(inputs, True, meter))
            traced[-1].drop_outputs()
        if len(setups) < SETUPS:
            setup()
        spent = time.perf_counter() - start
        next_pass = _median([p.wall for p in untraced]) + _median([p.wall for p in traced])
        if spent + next_pass > args.seconds:
            break
    # A traced run compares whole untraced and traced passes; only an
    # untraced run tops up.
    extra = [] if args.trace else top_up(inputs, untraced, meter, start + args.seconds)
    while len(setups) < SETUPS:
        setup()
    correct = len(digests) == 1
    if not correct:
        print("FAIL setup: one seed gave different inputs", file=sys.stderr)
    lines.append(f"input_digest.sha256 {min(digests)}")
    passes = untraced + traced + extra
    fails = count_failures(passes)
    attempted = sum(len(p.results) for p in passes)
    results = passes[0].results

    cli_tracer = pl.Tracer(True, meter.clock)
    cli_start = meter.clock()
    if args.trace:
        with cli_tracer.span("pass"):
            for res in results:
                if res.failed:
                    continue
                attempted += 1
                why = pl.cli_check(inputs[res.input_index], res, cli_tracer)
                if why:
                    print(f"FAIL cli: input {res.input_index} ({res.reducer}): {why}",
                          file=sys.stderr)
                    fails["cli"] += 1

    cli_end = meter.clock()
    meter.stop()
    if not meter.ok:
        print("FAIL host: the reference kernel gave a wrong answer", file=sys.stderr)
        correct = False
    host = meter.factor()
    for p in passes:
        p.set_factors(meter)
    q = statistics.quantiles(meter.samples, n=10) if len(meter.samples) > 1 else [0.0] * 9
    lines.append(f"host factor {host:.4f} over {len(meter.samples)} samples (deciles "
                 + " ".join(f"{x / hostspeed.NOMINAL_CALL_S:.2f}" for x in q) + "); per pass "
                 + " ".join(f"{p.factor:.3f}" for p in passes))
    failed = sum(fails.values())
    digest = _sha256(f"{r.input_index} {r.reducer} {r.failed} {r.digest}" for r in results)
    lines.append(f"trace_digest.sha256 {digest}")
    lines.append(f"{len(inputs)} inputs, {len(results)} checked runs per pass, "
                 f"{len(untraced)} untraced + {len(traced)} traced + {len(extra)} top-up passes; "
                 "pass seconds "
                 + " ".join(f"{p.wall:.2f}" for p in passes))
    if args.trace:
        setup_factors = [meter.factor(t0, t0 + dt) for t0, dt in setup_times]
        cli = (cli_tracer, meter.factor(cli_start, cli_end))
        m = per_layer(inputs, list(zip(setups, setup_factors)), untraced, traced, cli, host, lines)
        m.update(counts(results))
        m["fail_rate"] = failed / attempted
        for layer in pl.FAIL_LAYERS:
            m[f"fail.{layer}"] = fails[layer]
        m["trace_digest"] = int(digest[:12], 16)
        units = per_layer_units()
    else:
        m = end_to_end(passes, setup_times, meter, lines)
        m["ok_rate"] = 1 - failed / attempted
        units = END_TO_END
    return correct and failed == 0, attempted, failed, {k: m[k] for k in units}, units, lines

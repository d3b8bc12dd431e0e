"""The checked reduce pipeline, timed from outside through public calls.

One checked run is graphio.read_graph -> reducer -> solution.replay ->
the integer bound -> certify.induced_subgraph -> the class predicates.
A layer that raises or returns a wrong answer fails the run; the failure
is counted under that layer and the pass goes on with the next run.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

from planarize import certify, cli, graphio, solution
from planarize.planar import reduce_planar
from planarize.pseudoforest import reduce_pseudoforest
from planarize.treewidth2 import reduce_treewidth2

# reducer -> (span name, call returning (solution, ledger or None), bound num/den)
REDUCE = {
    "pseudoforest": ("pseudoforest.reduce", lambda g: (reduce_pseudoforest(g), None), (2, 9)),
    "tw2": ("treewidth2.reduce", lambda g: (reduce_treewidth2(g), None), (1, 5)),
    "planar": ("planar.reduce", reduce_planar, (23, 120)),
}

# reducer -> [(span name, predicate, key in the `planarize reduce` report)]
PREDICATES = {
    "pseudoforest": [("certify.is_pseudoforest", certify.is_pseudoforest, "pseudoforest")],
    "tw2": [("certify.is_partial_2_tree", certify.is_partial_2_tree, "partial_2_tree")],
    "planar": [
        ("certify.is_planar", certify.is_planar, "planar"),
        ("certify.accepts_planar_residue", certify.accepts_planar_residue, "structure"),
    ],
}

# Every span name a checked run or set-up records, in report order.
LAYERS = (
    "generators.generate",
    "graphio.write",
    "graphio.read",
    "pseudoforest.reduce",
    "treewidth2.reduce",
    "planar.reduce",
    "solution.replay",
    "certify.induced_subgraph",
    "certify.is_partial_2_tree",
    "certify.is_pseudoforest",
    "certify.is_planar",
    "certify.accepts_planar_residue",
    "cli.reduce",
)

# Layers a run can fail in; "reduce" also covers a reducer whose output
# differs between passes over the same file.
FAIL_LAYERS = ("graphio.read", "reduce", "solution.replay", "bound", "certify", "cli")


class Tracer:
    """In-memory spans [name, start, end, parent index]; a no-op when disabled.

    ``clock`` gives the span times; the benchmark passes one that leaves
    out the host-speed kernel's time (hostspeed.HostMeter.clock).
    """

    def __init__(self, enabled: bool, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = self.clock()
            self._open.pop()

    def totals(self) -> tuple[Counter, Counter]:
        """Summed duration and self time (duration minus child spans) per name."""
        total: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            own[name] += end - start - c
        return total, own

    def children(self, name: str) -> list[Counter]:
        """Per span called ``name``, in order: summed child durations by name."""
        index = {i: Counter() for i, s in enumerate(self.spans) if s[0] == name}
        for cname, start, end, parent in self.spans:
            if parent in index:
                index[parent][cname] += end - start
        return [index[i] for i in sorted(index)]


@dataclass
class RunResult:
    """Outcome of one checked reducer run on one input."""

    input_index: int
    reducer: str
    units: int
    started: float = 0.0  # tracer.clock() at the start
    seconds: float = 0.0
    failed: str | None = None  # name of the layer that failed
    s: list[int] = field(default_factory=list)
    bound_ok: bool = False
    certificates: dict[str, bool] = field(default_factory=dict)
    slack: Fraction = Fraction(0)
    cases: Counter = field(default_factory=Counter)
    charges: list[Fraction] = field(default_factory=list)
    digest: str = ""


def _fail(res: RunResult, layer: str, why: str) -> RunResult:
    res.failed = layer
    print(f"FAIL {layer}: input {res.input_index} ({res.reducer}): {why}", file=sys.stderr)
    return res


def checked_run(idx: int, inp, reducer: str, tracer: Tracer) -> RunResult:
    res = RunResult(idx, reducer, inp.m)
    span_name, reduce_fn, (num, den) = REDUCE[reducer]
    t0 = res.started = tracer.clock()
    with tracer.span("run"):
        try:
            with tracer.span("graphio.read"):
                g = graphio.read_graph(inp.path)
        except Exception:
            return _fail(res, "graphio.read", traceback.format_exc())
        if (g.n, g.m) != (inp.n, inp.m):
            return _fail(res, "graphio.read", f"read n={g.n} m={g.m}, wrote n={inp.n} m={inp.m}")
        try:
            with tracer.span(span_name):
                sol, ledger = reduce_fn(g)
        except Exception:
            return _fail(res, "reduce", traceback.format_exc())
        try:
            with tracer.span("solution.replay"):
                solution.replay(g, sol)
        except Exception:
            return _fail(res, "solution.replay", traceback.format_exc())
        # The bound is recomputed from the input, not read from the reducer.
        res.bound_ok = den * len(sol.s) >= den * g.n - num * g.m
        if not res.bound_ok or (sol.n, sol.m, sol.bound_num, sol.bound_den) != (g.n, g.m, num, den):
            return _fail(res, "bound", f"|S|={len(sol.s)} n={g.n} m={g.m} ratio {num}/{den}")
        try:
            with tracer.span("certify.induced_subgraph"):
                sub = certify.induced_subgraph(g, sol.s)
            for pname, pred, key in PREDICATES[reducer]:
                with tracer.span(pname):
                    res.certificates[key] = pred(sub)
        except Exception:
            return _fail(res, "certify", traceback.format_exc())
    res.seconds = tracer.clock() - t0
    if not all(res.certificates.values()):
        return _fail(res, "certify", f"verdicts {res.certificates}")
    res.s = sorted(sol.s)
    res.slack = len(sol.s) - Fraction(den * g.n - num * g.m, den)
    res.cases = Counter(step.label for step in sol.trace)
    res.charges = [e.charge for e in ledger.entries] if ledger is not None else []
    h = hashlib.sha256(f"{inp.digest} {reducer} {res.s}\n".encode())
    for st in sol.trace:
        h.update(
            f"{st.label} {st.deleted} {st.contracted} {st.accepted} "
            f"{st.removed_edges} {st.s_added} {st.simplified}\n".encode()
        )
    h.update(" ".join(f"{c.numerator}/{c.denominator}" for c in res.charges).encode())
    res.digest = h.hexdigest()
    return res


def cli_check(inp, expected: RunResult, tracer: Tracer) -> str | None:
    """Run ``planarize reduce`` on the file; return why it disagrees, or None.

    The report must exit 0 and match the library run on s, s_size,
    bound_satisfied and certificates; wall_time_s is not compared.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with tracer.span("cli.reduce"), redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["reduce", "--alg", expected.reducer, "-i", inp.path])
        report = json.loads(out.getvalue())
    except Exception:
        return traceback.format_exc()
    if code != 0:
        return f"exit code {code}: {err.getvalue().strip()}"
    want = {
        "s": expected.s,
        "s_size": len(expected.s),
        "bound_satisfied": expected.bound_ok,
        "certificates": expected.certificates,
    }
    got = {k: report.get(k) for k in want}
    if got != want:
        diff = sorted(k for k in want if got[k] != want[k])
        return f"report differs from the library run on {diff}"
    return None

#!/usr/bin/env python3
"""Sweep the three reducers over a seeded corpus and summarize margins.

Each run is one ``reducers.checked_run``.  Reports, per algorithm: worst
bound slack (|S| minus the exact bound from the input's n and m); the
runs whose trace did not replay or whose certificates failed (should be
none); and for the planar reducer the minimum ledger step charge
observed.
"""

import argparse
import random

from planarize import generators as gen
from planarize.multigraph import from_edge_list
from planarize.reducers import REDUCERS, checked_run


def corpus(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    for d in (2, 3, 4, 5):
        for n in (8, 16, 24, 40, 60):
            if (n * d) % 2:
                continue
            for s in range(3):
                out.append((f"rr({n},{d},{s})", gen.random_regular(n, d, s)))
    while len(out) < count:
        n = rng.randrange(5, 26)
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        out.append((f"gnp({n},{p})", from_edge_list(edges, n)))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=400)
    args = ap.parse_args(argv)

    graphs = corpus(args.seed, args.count)
    worst_slack = dict.fromkeys(REDUCERS)
    min_charge = None
    failures = []

    for tag, g in graphs:
        for alg in REDUCERS:
            run = checked_run(g, alg)
            if worst_slack[alg] is None or run.slack < worst_slack[alg]:
                worst_slack[alg] = run.slack
            low = run.ledger.min_charge() if run.ledger is not None else None
            if low is not None and (min_charge is None or low < min_charge):
                min_charge = low
            if not run.replayed:
                failures.append((tag, alg, "replay"))
            if not all(run.certificates.values()):
                failures.append((tag, alg, "certificates"))

    print(f"graphs checked: {len(graphs)}")
    for alg, slack in worst_slack.items():
        print(f"{alg:13s} worst bound slack: {slack}")
    print(f"planar min ledger charge: {min_charge}")
    print(f"failures: {failures or 'none'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

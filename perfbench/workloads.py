"""Seeded inputs of the three workloads, written as edge-list files.

Set-up draws every random choice from one ``random.Random(seed)``, so the
same seed gives byte-identical files.  Every ladder graph is built at
fixed parameters and then relabelled by a seeded permutation, which keeps
its structure and size but makes the file, the traces and S depend on the
seed.  For the tight families (t copies of K33 or K5) the structure is
fixed anyway.  The random 4-regular rungs come from the pairing model at
the fixed generator seed RR_SEED: its retry count, and so the set-up
time, varies between seeds by a factor of several (two sets of ten seeds
gave median set-up times 0.38 s and 0.75 s), which would make setup_s
measure the seed rather than the code.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

from planarize import generators, graphio
from planarize.errors import InvalidSpec
from planarize.multigraph import MultiGraph, from_edge_list

# Ladder families: name -> (reducer, graph family).  A family's rungs
# double in size, so consecutive rungs give doubling ratios.
FAMILIES = {
    "tw2-rr4": ("tw2", "rr4"),
    "pseudoforest-k33": ("pseudoforest", "k33"),
    "planar-rr4": ("planar", "rr4"),
    "planar-k5": ("planar", "k5"),
    "pseudoforest-rr4": ("pseudoforest", "rr4"),
}

RR_SEED = 11  # the generator seed of the ROADMAP baseline ladders

# Rung sizes: n for rr4 (random 4-regular), copy count t for k33 and k5.
LADDERS = {
    "full": {
        "verify": {"tw2-rr4": (1000, 2000, 4000), "pseudoforest-k33": (250, 500, 1000)},
        "reduce": {
            "planar-rr4": (150, 300, 600),
            "planar-k5": (25, 50, 100),
            "pseudoforest-rr4": (1000, 2000, 4000),
        },
    },
    "tiny": {
        "verify": {"tw2-rr4": (40, 80, 160), "pseudoforest-k33": (5, 10, 20)},
        "reduce": {
            "planar-rr4": (12, 24, 48),
            "planar-k5": (2, 4, 8),
            "pseudoforest-rr4": (40, 80, 160),
        },
    },
}

# The scripts/run_corpus.py recipe: random regular graphs over a (d, n)
# grid, then G(n, p) graphs up to the count.  Every graph goes through
# all three reducers.  The script draws each G(n, p) shape (n, p) at
# random; here the shapes cycle through GNP_SHAPES in order, so a seed
# changes the edges but not the mix of sizes and densities, which would
# otherwise move the timings from seed to seed.
CORPUS = {
    "full": {"degrees": (2, 3, 4, 5), "sizes": (8, 16, 24, 40, 60), "per_cell": 3, "count": 400},
    "tiny": {"degrees": (2, 3, 4, 5), "sizes": (8, 16), "per_cell": 1, "count": 20},
}
GNP_SHAPES = [(n, p) for n in range(5, 26) for p in (0.15, 0.3, 0.5, 0.7, 0.9)]

REDUCERS = ("pseudoforest", "tw2", "planar")


@dataclass(frozen=True)
class Input:
    """One generated graph file and the reducers a pass runs on it."""

    name: str
    reducers: tuple[str, ...]
    path: str
    n: int
    m: int
    digest: str  # sha256 of the file bytes
    family: str | None = None  # ladder family, None for corpus graphs


def _relabel(g: MultiGraph, rng: random.Random) -> MultiGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list([(perm[u], perm[v]) for u, v, _ in g.iter_edges()], g.n)


def _family_graph(kind: str, size: int, rng: random.Random) -> MultiGraph:
    if kind == "rr4":
        g = generators.random_regular(size, 4, RR_SEED)
    else:
        inner = generators.complete_bipartite(3, 3) if kind == "k33" else generators.complete(5)
        g = generators.disjoint_copies(inner, size)
    return _relabel(g, rng)


def _random_regular(n: int, d: int, rng: random.Random) -> MultiGraph:
    """The pairing model gives up after 10,000 rejections (often at n = 8,
    d = 5); draw the next seed from the stream then."""
    while True:
        try:
            return generators.random_regular(n, d, rng.randrange(2**32))
        except InvalidSpec:
            continue


def _gnp(n: int, p: float, rng: random.Random) -> MultiGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(edges, n)


def _corpus_graphs(scale: str, rng: random.Random):
    spec = CORPUS[scale]
    count = 0
    for d in spec["degrees"]:
        for n in spec["sizes"]:
            if (n * d) % 2:
                continue
            for _ in range(spec["per_cell"]):
                count += 1
                yield f"rr({n},{d})#{count}", _random_regular(n, d, rng)
    for k in range(spec["count"] - count):
        n, p = GNP_SHAPES[k % len(GNP_SHAPES)]
        count += 1
        yield f"gnp({n},{p})#{count}", _gnp(n, p, rng)


def _graphs(workload: str, scale: str, rng: random.Random):
    """Yield (name, reducers, family, graph) in pass order, ladders by rising size."""
    if workload == "corpus":
        for name, g in _corpus_graphs(scale, rng):
            yield name, REDUCERS, None, g
        return
    for family, sizes in LADDERS[scale][workload].items():
        reducer, kind = FAMILIES[family]
        for size in sizes:
            yield f"{family}/{size}", (reducer,), family, _family_graph(kind, size, rng)


def build_inputs(workload: str, seed: int, scale: str, workdir: str, tracer) -> list[Input]:
    """Generate the workload's graphs from ``seed`` and write one file each."""
    rng = random.Random(seed)
    out: list[Input] = []
    graphs = _graphs(workload, scale, rng)
    while True:
        with tracer.span("generators.generate"):
            item = next(graphs, None)
        if item is None:
            return out
        name, reducers, family, g = item
        path = os.path.join(workdir, f"{len(out):04d}.txt")
        with tracer.span("graphio.write"):
            text = graphio.write_graph_text(g)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        out.append(Input(name, reducers, path, g.n, g.m, digest, family))

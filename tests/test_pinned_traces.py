"""Pinned traces: refactors must leave every reducer run byte for byte.

Each digest covers one reducer over a fixed input list: per input its
tag, the algorithm, the sorted output set, every ``TraceStep`` field,
and for the planar reducer every ledger charge.  The digests were
recorded before the reducers shared ``solution.require_simple`` and
``solution.check_result``; a change that moves any trace, set or charge
changes the digest.  The summary ``scripts/run_corpus.py`` prints with
its defaults is pinned as well, by running the script end to end.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from planarize import generators as gen
from planarize.reducers import REDUCERS
from test_cli import moving_an_edge_unit
from test_planar_dispatch import _corpus_recipe, _run_corpus_script
from test_pseudoforest import (_far_double_link, _k4_blowup, _shared_triangle_pair,
                               _shuffled_union, _tetra_ring, _two_k4s_matched)

PINNED = {
    "pseudoforest": "5bf93a5c553366210384f958bb5713487e0bc80f58e89fa9b9d31204fa24869f",
    "tw2": "2fe4f51941a8f1a04058f641461abcc10e182e55dc12f1fc9abe4410bb09ccd4",
    "planar": "29de560a41d1ab4ecae72bd8b4520f7e268b5032493cbfb8979b6372fcf9efae",
}

# The pseudoforest reducer on all-tetrahedra inputs, where the C2, C3 and
# C4 subcases of the 4-regular case fire; none of them occurs on the
# inputs above.  Recorded before the lazy pseudoforest dispatcher.
PINNED_TETRA = "1a260a66016d99165a69ef0f2bcb511c756f81a588c9a097e4ebd795bdd6fd5e"

# The pseudoforest reducer where raised vertices and their watch lists do
# the work: random 4-regular graphs at the sizes of the ``reduce``
# benchmark ladder, the contraction that gives a raised vertex a
# FourRegC3 case two steps away, and K4 blow-ups of random 4-regular
# graphs.  Recorded before a step keyed only the rows it changed.
PINNED_RAISED = "9fe4b45bd9fe09882e90ebcc1ea473742ef3e56414d59d48e98b4f096fb05942"


ROOT = Path(__file__).resolve().parents[1]
CORPUS_SCRIPT = ROOT / "scripts" / "run_corpus.py"


def pinned_inputs():
    """The ``scripts/run_corpus.py`` recipe (seed 0), the cage fixtures,
    and disjoint copies of K33 and K5."""
    out = list(_corpus_recipe())
    for name in ("petersen", "heawood", "mcgee", "tuttecoxeter"):
        out.append((name, gen.FIXTURES[name]()))
    for t in (1, 2, 5, 20):
        out.append((f"k33x{t}", gen.disjoint_copies(gen.complete_bipartite(3, 3), t)))
        out.append((f"k5x{t}", gen.disjoint_copies(gen.complete(5), t)))
    return out


def tetra_inputs():
    """Disjoint copies of the five-tetrahedra ring (C4), two matched K4s
    (C3) and two tetrahedra sharing a triangle (C2)."""
    out = [(f"tetra_ring x{t}", gen.disjoint_copies(_tetra_ring(), t)) for t in (1, 3, 10)]
    out.append(("two_k4s_matched", _two_k4s_matched()))
    out.append(("shared_triangle_pair", _shared_triangle_pair()))
    return out


def raised_inputs():
    """``random_regular(n, 4, 11)`` for n = 1000, 2000, 4000, the far
    double link, and two K4 blow-ups with shuffled ids."""
    out = [(f"rr4 n={n}", gen.random_regular(n, 4, 11)) for n in (1000, 2000, 4000)]
    out.append(("far_double_link", _far_double_link()))
    for n, seed in ((30, 3), (200, 7)):
        blowup = _k4_blowup(gen.random_regular(n, 4, seed))
        out.append((f"k4_blowup n={n}", _shuffled_union([blowup], random.Random(seed))))
    return out


def trace_digest(algorithm: str, inputs) -> str:
    run, _ = REDUCERS[algorithm]
    h = hashlib.sha256()
    for tag, g in inputs:
        sol, ledger = run(g)
        h.update(f"{tag} {sol.algorithm} {sorted(sol.s)}\n".encode())
        for st in sol.trace:
            h.update(
                f"{st.label} {st.deleted} {st.contracted} {st.accepted} "
                f"{st.removed_edges} {st.s_added} {st.simplified}\n".encode()
            )
        if ledger is not None:
            charges = " ".join(f"{e.index}:{e.label}:{e.charge}" for e in ledger.entries)
            h.update(f"{charges}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def inputs():
    return pinned_inputs()


@pytest.mark.parametrize("algorithm", sorted(REDUCERS))
def test_trace_digest_is_pinned(algorithm, inputs):
    assert trace_digest(algorithm, inputs) == PINNED[algorithm]


def test_tetra_digest_is_pinned():
    assert trace_digest("pseudoforest", tetra_inputs()) == PINNED_TETRA


def test_raised_digest_is_pinned():
    assert trace_digest("pseudoforest", raised_inputs()) == PINNED_RAISED


def test_ledger_entries_line_up_with_the_trace(inputs):
    # One ledger entry per step, in trace order, under the step's index
    # and label: the charge of a trace line is the entry at its index.
    run, _ = REDUCERS["planar"]
    for tag, g in inputs:
        sol, ledger = run(g)
        got = [(e.index, e.label) for e in ledger.entries]
        assert got == [(i, s.label) for i, s in enumerate(sol.trace)], tag


CORPUS_SUMMARY = """\
graphs checked: 400
pseudoforest  worst bound slack: 0
tw2           worst bound slack: 0
planar        worst bound slack: 0
planar min ledger charge: 0
failures: none
"""


def test_run_corpus_script_summary_is_pinned():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(CORPUS_SCRIPT)], cwd=ROOT, capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, text=True, timeout=600)
    assert (proc.returncode, proc.stdout) == (0, CORPUS_SUMMARY), proc.stderr[-2000:]


def test_run_corpus_counts_a_trace_that_does_not_replay(monkeypatch, capsys):
    # Every reducer's trace gets one edge unit moved between two steps,
    # which only a replay sees; the script lists those runs and exits 1.
    for alg, (run, certs) in list(REDUCERS.items()):
        monkeypatch.setitem(REDUCERS, alg, (moving_an_edge_unit(run), certs))
    assert _run_corpus_script().main(["--count", "0"]) == 1
    failures = capsys.readouterr().out.splitlines()[-1]
    assert failures.startswith("failures: [")
    for alg in REDUCERS:
        assert f"'{alg}', 'replay')" in failures, alg
    assert "'certificates')" not in failures


if __name__ == "__main__":
    graphs = pinned_inputs()
    for alg in REDUCERS:
        print(f'    "{alg}": "{trace_digest(alg, graphs)}",')
    print(f'PINNED_TETRA = "{trace_digest("pseudoforest", tetra_inputs())}"')
    print(f'PINNED_RAISED = "{trace_digest("pseudoforest", raised_inputs())}"')

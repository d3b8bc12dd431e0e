import dataclasses
import json

import pytest

from planarize import cli
from planarize.errors import StaleDescriptor, UnknownVertex
from planarize.reducers import REDUCERS
from planarize.graphio import write_graph_text, parse_graph
from planarize.solution import check_result
from planarize import generators as gen


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_reduce_pseudoforest(tmp_path, capsys):
    path = tmp_path / "k33.txt"
    path.write_text(write_graph_text(gen.complete_bipartite(3, 3)))
    code, out, _ = run_cli(capsys, "reduce", "--alg", "pseudoforest", "-i", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["s_size"] == 4
    assert report["bound_satisfied"] is True
    assert report["certificates"]["pseudoforest"] is True
    assert report["s"] == sorted(report["s"])


def test_reduce_planar_k33(tmp_path, capsys):
    path = tmp_path / "k33.txt"
    path.write_text(write_graph_text(gen.complete_bipartite(3, 3)))
    code, out, _ = run_cli(capsys, "reduce", "--alg", "planar", "-i", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["s_size"] == 5
    assert report["bound_value"] == "171/40"
    assert report["certificates"] == {"planar": True, "structure": True}
    assert report["ledger"]["params"]["epsilon"] == "5/23"
    assert all("/" in step["charge"] for step in report["ledger"]["steps"])


def test_reduce_tw2_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("p 4 0\n")
    code, out, _ = run_cli(capsys, "reduce", "--alg", "tw2", "-i", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["s_size"] == 4


def test_reduce_bound_read_from_the_input(tmp_path, capsys, monkeypatch):
    # A reducer whose solution understates n, by as many vertices as it
    # drops from S, passes its own record's bound; the report reads n and
    # m from the input, so the bound fails.  G[S] stays a partial 2-tree.
    run, certs = REDUCERS["tw2"]

    def understating(g, params=None):
        sol, ledger = run(g, params)
        return dataclasses.replace(sol, n=sol.n - len(sol.s), s=set()), ledger

    monkeypatch.setitem(REDUCERS, "tw2", (understating, certs))
    path = tmp_path / "k33.txt"
    path.write_text(write_graph_text(gen.complete_bipartite(3, 3)))
    code, out, _ = run_cli(capsys, "reduce", "--alg", "tw2", "-i", str(path))
    assert code == 2
    report = json.loads(out)
    assert (report["n"], report["m"], report["s_size"]) == (6, 9, 0)
    assert report["bound_value"] == "21/5"
    assert report["bound_satisfied"] is False
    assert report["certificates"] == {"partial_2_tree": True}


def moving_an_edge_unit(run):
    """``run`` with one edge unit moved from the first step that has one
    to the step after it.  The total is kept, so the tampered solution
    still passes ``check_result``; only a replay, step by step, sees it.
    A trace with no such pair of steps is left as it is."""

    def moved(g, params=None):
        sol, ledger = run(g, params)
        i = next((i for i, step in enumerate(sol.trace[:-1]) if step.removed_edges), None)
        if i is not None:
            a, b = sol.trace[i], sol.trace[i + 1]
            sol.trace[i] = a._replace(removed_edges=a.removed_edges - 1)
            sol.trace[i + 1] = b._replace(removed_edges=b.removed_edges + 1)
            assert check_result(sol) is sol
        return sol, ledger

    return moved


@pytest.mark.parametrize("algorithm", sorted(REDUCERS))
def test_reduce_replays_the_reducers_own_trace(tmp_path, capsys, monkeypatch, algorithm):
    run, certs = REDUCERS[algorithm]
    monkeypatch.setitem(REDUCERS, algorithm, (moving_an_edge_unit(run), certs))
    path = tmp_path / "rr4.txt"
    path.write_text(write_graph_text(gen.random_regular(40, 4, 3)))
    code, out, err = run_cli(capsys, "reduce", "--alg", algorithm, "-i", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["replayed"] is False
    assert report["bound_satisfied"] is True and all(report["certificates"].values())
    assert err.startswith("assertion failure:") and "edge units" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fault", [StaleDescriptor, UnknownVertex])
def test_reducer_fault_exit_two(tmp_path, capsys, monkeypatch, fault):
    # A toolkit error a reducer raises past its input checks is the
    # reducer's fault, not the input's.
    def faulty(g, params=None):
        raise fault("raised mid-run")

    monkeypatch.setitem(REDUCERS, "tw2", (faulty, REDUCERS["tw2"][1]))
    path = tmp_path / "k33.txt"
    path.write_text(write_graph_text(gen.complete_bipartite(3, 3)))
    code, out, err = run_cli(capsys, "reduce", "--alg", "tw2", "-i", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("assertion failure:") and fault.__name__ in err
    assert "Traceback" not in err


def test_output_set_naming_a_vertex_not_in_the_input_exit_two(tmp_path, capsys, monkeypatch):
    run, certs = REDUCERS["tw2"]

    def stranger(g, params=None):
        sol, ledger = run(g, params)
        return dataclasses.replace(sol, s=sol.s | {99}), ledger

    monkeypatch.setitem(REDUCERS, "tw2", (stranger, certs))
    path = tmp_path / "k33.txt"
    path.write_text(write_graph_text(gen.complete_bipartite(3, 3)))
    code, out, err = run_cli(capsys, "reduce", "--alg", "tw2", "-i", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("assertion failure:") and "vertex 99 not in graph" in err
    assert "Traceback" not in err


def test_reduce_with_custom_params(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text(write_graph_text(gen.complete(4)))
    code, out, _ = run_cli(
        capsys, "reduce", "--alg", "planar", "-i", str(path), "--params", "0,1/4,0,1"
    )
    assert code == 0


def test_bad_params_exit_one(tmp_path, capsys):
    # Infeasible or malformed rationals, in reduce and in lp check, any
    # params at all (an empty string too) for a reducer that takes none,
    # an empty string where params are taken, and an lp option given to
    # the subcommand it does not apply to.
    path = tmp_path / "k4.txt"
    path.write_text(write_graph_text(gen.complete(4)))
    reduce = ("reduce", "-i", str(path), "--alg")
    cases = [(reduce + ("planar", "--params", "1,0,0,0"), "violate")]
    for bad in ("1/0", "a/b", "1/2/3"):
        cases += [(reduce + ("planar", "--params", f"{bad},1,1,1"), repr(bad)),
                  (("lp", "check", "--params", f"{bad},1,1,1"), repr(bad))]
    for alg in ("pseudoforest", "tw2"):
        cases += [(reduce + (alg, "--params", p), "planar only") for p in ("garbage", "0,1/4,0,1", "")]
    cases += [(reduce + ("planar", "--params", ""), "expected"),
              (("lp", "check", "--params", ""), "expected"),
              (("lp", "solve", "--params", "1/5,1/5,1/23,1/2"), "check only"),
              (("lp", "solve", "--params", ""), "check only"),
              (("lp", "check", "--drop", "foo"), "solve only")]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and message in err and "Traceback" not in err, argv


def test_missing_file_exit_one(capsys):
    code, _, err = run_cli(capsys, "reduce", "--alg", "tw2", "-i", "/no/such/file")
    assert code == 1


def test_malformed_file_exit_one(tmp_path, capsys):
    # A self loop, and bytes that are not UTF-8 as the graph or as the set.
    good = tmp_path / "k4.txt"
    good.write_text(write_graph_text(gen.complete(4)))
    bad = tmp_path / "bad.txt"
    reduce = ("reduce", "--alg", "tw2", "-i", str(bad))
    for data, argv in ((b"1 1\n", reduce), (b"\xff\xfe\x00bad", reduce),
                       (b"\xff\xfe\x00bad", ("certify", "-i", str(good), "-s", str(bad)))):
        bad.write_bytes(data)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), (data, argv)
        assert err.startswith("error:") and "Traceback" not in err, (data, argv)


def test_malformed_dimacs_exit_one_without_traceback(tmp_path, capsys):
    # The last two: a second header, and a header with a field too many.
    for text in ("p edge x 3\ne 1 2\n", "p edge 3 1\ne 1 b\n", "p 3 2\np 4 2\n0 1\n1 2\n",
                 "p edge 3 2 9\ne 1 2\ne 2 3\n"):
        path = tmp_path / "bad.dimacs"
        path.write_text(text)
        code, _, err = run_cli(capsys, "reduce", "--alg", "tw2", "-i", str(path))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err


def test_lp_solve(capsys):
    code, out, _ = run_cli(capsys, "lp", "solve")
    assert code == 0
    report = json.loads(out)
    assert report["optimum"] == "5/23"
    assert report["assignment"] == {
        "epsilon": "5/23",
        "c3": "9/46",
        "c4": "1/23",
        "tau": "15/23",
    }


def test_lp_check_reports_tight_rows(capsys):
    code, out, _ = run_cli(capsys, "lp", "check")
    assert code == 0
    report = json.loads(out)
    assert report["feasible"] is True
    tight = {row["name"] for row in report["slacks"] if row["tight"]}
    assert {"three-regular", "four-regular"} <= tight


def test_lp_solve_drop(capsys):
    code, out, _ = run_cli(capsys, "lp", "solve", "--drop", "three-regular")
    assert code == 0
    assert json.loads(out)["optimum"] == "5/8"


def test_certify_subcommand(tmp_path, capsys):
    gpath = tmp_path / "k5.txt"
    gpath.write_text(write_graph_text(gen.complete(5)))
    spath = tmp_path / "s.txt"
    spath.write_text("0\n1\n2\n")
    code, out, _ = run_cli(capsys, "certify", "-i", str(gpath), "-s", str(spath))
    assert code == 0
    report = json.loads(out)
    assert report == {"n": 3, "m": 3, "s": [0, 1, 2], "pseudoforest": True,
                      "partial_2_tree": True, "planar": True, "structure": True}


def test_certify_agrees_with_reduce_on_the_bowtie(tmp_path, capsys):
    # Two triangles sharing vertex 2: the planar reducer keeps all five
    # vertices, and certify gives G[S] the verdicts reduce reported.
    gpath = tmp_path / "bowtie.txt"
    gpath.write_text("0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n")
    code, out, _ = run_cli(capsys, "reduce", "--alg", "planar", "-i", str(gpath))
    assert code == 0
    reduced = json.loads(out)
    assert reduced["s"] == [0, 1, 2, 3, 4]
    assert reduced["certificates"] == {"planar": True, "structure": True}
    code, out, _ = run_cli(capsys, "certify", "-i", str(gpath))
    assert code == 0
    report = json.loads(out)
    assert report["planar"] is True and report["structure"] is True


def test_oracle_subcommand(tmp_path, capsys):
    gpath = tmp_path / "k33.txt"
    gpath.write_text(write_graph_text(gen.complete_bipartite(3, 3)))
    code, out, _ = run_cli(capsys, "oracle", "-i", str(gpath), "--property", "pseudoforest")
    assert code == 0
    report = json.loads(out)
    assert report["max_size"] == 4


def test_oracle_bad_cap_env_exit_one(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "k33.txt"
    gpath.write_text(write_graph_text(gen.complete_bipartite(3, 3)))
    monkeypatch.setenv("PLANARIZE_ORACLE_CAP", "lots")
    code, _, err = run_cli(capsys, "oracle", "-i", str(gpath))
    assert code == 1
    assert "PLANARIZE_ORACLE_CAP" in err


def test_minor_subcommand(tmp_path, capsys):
    gpath = tmp_path / "c19.txt"
    gpath.write_text(write_graph_text(gen.cycle(19)))
    code, out, _ = run_cli(capsys, "minor", "-i", str(gpath))
    assert code == 0
    report = json.loads(out)
    assert report["edge_identity"] is True
    assert report["n_prime"] == 5


def test_minor_low_girth_exit_one(tmp_path, capsys):
    gpath = tmp_path / "pet.txt"
    gpath.write_text(write_graph_text(gen.petersen()))
    code, _, err = run_cli(capsys, "minor", "-i", str(gpath))
    assert code == 1


def test_gen_round_trip(tmp_path, capsys):
    out_path = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "gen", "random-regular", "--n", "12", "--d", "3",
                         "--seed", "9", "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert write_graph_text(parse_graph(text)) == text


def test_gen_fixture_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "fixture", "petersen")
    assert code == 0
    assert out.splitlines()[0] == "p 10 15"


def test_gen_unknown_fixture_exit_one(capsys):
    code, out, err = run_cli(capsys, "gen", "fixture", "nope")
    assert code == 1 and out == ""
    assert err == ("error: unknown fixture 'nope'; have ['c4', 'heawood', 'k33', 'k4', "
                   "'k5', 'mcgee', 'petersen', 'tuttecoxeter']\n")


def test_gen_negative_size_exit_one(capsys):
    code, out, err = run_cli(capsys, "gen", "complete", "--n", "-1")
    assert (code, out) == (1, "")
    assert err == "error: sizes must be non-negative, got -1\n"


def test_gen_k33xt(tmp_path, capsys):
    out_path = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "gen", "k33xt", "--t", "3", "-o", str(out_path))
    assert code == 0
    g = parse_graph(out_path.read_text())
    assert (g.n, g.m) == (18, 27)


def test_gen_json_keeps_stdout_a_graph_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gen", "cycle", "--n", "4", "--json")
    assert code == 0
    assert json.loads(err) == {"n": 4, "m": 4, "components": 1}
    path = tmp_path / "g.txt"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "reduce", "--alg", "tw2", "-i", str(path))
    assert code == 0
    assert json.loads(out)["s_size"] == 4
    # Written to a file, the graph leaves stdout to the summary.
    code, out, _ = run_cli(capsys, "gen", "cycle", "--n", "4", "--json", "-o", str(path))
    assert code == 0 and json.loads(out)["m"] == 4
    assert parse_graph(path.read_text()).m == 4


def test_reduce_header_mismatch_exit_one(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("p 4 99\n0 1\n")
    code, out, err = run_cli(capsys, "reduce", "--alg", "tw2", "-i", str(path))
    assert code == 1
    assert out == ""
    assert "header declares 99 edges" in err and "Traceback" not in err


def test_usage_error(capsys):
    code, _, _ = run_cli(capsys, "reduce", "--alg", "nope", "-i", "x")
    assert code == 1

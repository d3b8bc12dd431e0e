from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planarize import lp
from planarize.errors import Infeasible, MissingVariable


def test_paper_point_is_feasible_with_expected_tight_rows():
    rows = lp.check_feasible(lp.default_lp(), lp.paper_point())
    assert all(r.satisfied for r in rows)
    tight = {r.name for r in rows if r.tight}
    assert "three-regular" in tight
    assert "four-regular" in tight


def test_all_zeros_violates_four_regular_by_one():
    zeros = {v: Fraction(0) for v in lp.VARIABLES}
    rows = {r.name: r for r in lp.check_feasible(lp.default_lp(), zeros)}
    assert rows["four-regular"].slack == Fraction(-1)
    assert not rows["four-regular"].satisfied


def test_epsilon_cannot_be_nudged_up():
    point = lp.paper_point()
    point["epsilon"] += Fraction(1, 1000)
    rows = {r.name: r for r in lp.check_feasible(lp.default_lp(), point)}
    assert not rows["three-regular"].satisfied


def test_missing_variable():
    with pytest.raises(MissingVariable):
        lp.check_feasible(lp.default_lp(), {"epsilon": Fraction(0)})


def test_solve_default():
    value, point = lp.solve(lp.default_lp())
    assert value == Fraction(5, 23)
    assert point == lp.paper_point()


def test_solve_result_is_feasible_and_dominates_all_vertices():
    problem = lp.default_lp()
    value, point = lp.solve(problem)
    assert lp.is_feasible(problem, point)
    for vertex in lp.enumerate_basic_feasible(problem):
        assert vertex["epsilon"] <= value


def test_optimum_respects_credit_ordering():
    _, point = lp.solve(lp.default_lp())
    assert Fraction(1) >= point["c3"] >= point["c4"] >= 0


def test_toy_maximize_x_le_1():
    cons = [
        lp.Constraint("cap", {"epsilon": Fraction(1)}, lp.LE, Fraction(1)),
    ] + [
        lp.Constraint(f"{v}-nonneg", {v: Fraction(1)}, lp.GE, Fraction(0))
        for v in lp.VARIABLES
    ]
    value, point = lp.solve(lp.RationalLp(cons))
    assert value == Fraction(1)
    assert point["epsilon"] == Fraction(1)


def test_solve_with_rows_dropped():
    # Regression values computed once by the basic-solution enumeration
    # and frozen: dropping the 4-regular row leaves the optimum at 5/23
    # (tau collapses to 0); the binding three-regular row is what caps
    # epsilon, so removing it lifts the optimum to 5/8.
    problem = lp.default_lp().drop("four-regular")
    value, point = lp.solve(problem)
    assert lp.is_feasible(problem, point)
    assert value == Fraction(5, 23)
    assert point["tau"] == Fraction(0)

    value2, _ = lp.solve(lp.default_lp().drop("three-regular"))
    assert value2 == Fraction(5, 8)
    value3, _ = lp.solve(lp.default_lp().drop("degree-five"))
    assert value3 == Fraction(1, 3)


def test_drop_unknown_name():
    with pytest.raises(MissingVariable):
        lp.default_lp().drop("no-such-row")


def test_infeasible_lp():
    cons = [
        lp.Constraint("lo", {"epsilon": Fraction(1)}, lp.GE, Fraction(2)),
        lp.Constraint("hi", {"epsilon": Fraction(1)}, lp.LE, Fraction(1)),
    ] + [
        lp.Constraint(f"{v}-nonneg", {v: Fraction(1)}, lp.GE, Fraction(0))
        for v in lp.VARIABLES
    ]
    with pytest.raises(Infeasible):
        lp.solve(lp.RationalLp(cons))


def test_rational_parsing():
    assert lp.rational("5/23") == Fraction(5, 23)
    assert lp.rational("-3/6") == Fraction(-1, 2)
    assert lp.rational("7") == Fraction(7)
    assert lp.format_rational(Fraction(4)) == "4/1"


@settings(max_examples=200)
@given(st.fractions())
def test_serialization_round_trips(x):
    assert lp.rational(lp.format_rational(x)) == x

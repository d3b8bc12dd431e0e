"""Exact-rational linear program for the planar reducer's charge analysis.

The default instance maximizes epsilon over (epsilon, c3, c4, tau)
subject to the ten case inequalities; its optimum is epsilon = 5/23 at
(5/23, 9/46, 1/23, 15/23).  Solving enumerates all basic solutions
(4x4 rational systems from constraint subsets), which doubles as a
proof of optimality by exhaustion.  All arithmetic uses Fraction; no
floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import Infeasible, MissingVariable, ParseError, Unbounded

VARIABLES = ("epsilon", "c3", "c4", "tau")

LE = "<="
GE = ">="


def rational(text: str | int | Fraction) -> Fraction:
    """Parse 'p/q' or 'p' into an exact rational; anything else,
    a zero denominator included, is a ParseError."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(*map(int, text.strip().split("/", 1)))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational 'p/q' or 'p': {text!r}") from None


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict[str, Fraction]
    relation: str  # LE or GE
    rhs: Fraction

    def lhs(self, assignment: dict[str, Fraction]) -> Fraction:
        return sum((c * assignment[v] for v, c in self.coeffs.items()), Fraction(0))

    def slack(self, assignment: dict[str, Fraction]) -> Fraction:
        """Non-negative iff satisfied."""
        val = self.lhs(assignment)
        return self.rhs - val if self.relation == LE else val - self.rhs


OBJECTIVE = "epsilon"  # maximized


@dataclass
class RationalLp:
    constraints: list[Constraint] = field(default_factory=list)

    def names(self) -> list[str]:
        return [c.name for c in self.constraints]

    def drop(self, name: str) -> "RationalLp":
        if name not in self.names():
            raise MissingVariable(f"no constraint named {name!r}; have {self.names()}")
        return RationalLp([c for c in self.constraints if c.name != name])


def _c(name: str, coeffs: dict[str, int | Fraction], rel: str, rhs: int | Fraction) -> Constraint:
    return Constraint(name, {k: Fraction(v) for k, v in coeffs.items()}, rel, Fraction(rhs))


def default_lp() -> RationalLp:
    """The charge-analysis LP: variable bounds plus one inequality per
    reduction case of the planar algorithm."""
    cons = [
        _c("delta2-ge-delta3", {"c3": 2, "c4": -1}, LE, 1),
        _c("delta3-ge-delta4", {"c3": 1, "c4": -2}, GE, 0),
        _c("c4-nonneg", {"c4": 1}, GE, 0),
        _c("tau-nonneg", {"tau": 1}, GE, 0),
        _c("planar", {"c3": 2, "tau": 1}, LE, 3),
        _c("three-regular", {"c3": 4, "epsilon": 1}, LE, 1),
        _c("degree-five", {"epsilon": 1, "c4": -5}, LE, 0),
        _c("mixed-a", {"epsilon": 1, "c3": -2, "c4": 4}, LE, 0),
        _c("mixed-b", {"epsilon": 1, "c3": 4, "c4": 1, "tau": 1}, LE, 3),
        _c("four-regular", {"epsilon": 1, "tau": -1, "c3": -4, "c4": 5}, LE, -1),
        # Implicit non-negativity of the remaining variables.
        _c("epsilon-nonneg", {"epsilon": 1}, GE, 0),
        _c("c3-nonneg", {"c3": 1}, GE, 0),
    ]
    return RationalLp(cons)


def paper_point() -> dict[str, Fraction]:
    """The optimum of the default LP."""
    return {
        "epsilon": Fraction(5, 23),
        "c3": Fraction(9, 46),
        "c4": Fraction(1, 23),
        "tau": Fraction(15, 23),
    }


@dataclass(frozen=True)
class SlackRow:
    name: str
    slack: Fraction

    @property
    def satisfied(self) -> bool:
        return self.slack >= 0

    @property
    def tight(self) -> bool:
        return self.slack == 0


def check_feasible(lp: RationalLp, assignment: dict[str, Fraction]) -> list[SlackRow]:
    """Exact slack for every constraint; feasible iff all slacks >= 0."""
    missing = [v for v in VARIABLES if v not in assignment]
    if missing:
        raise MissingVariable(f"assignment missing {missing}")
    return [SlackRow(c.name, c.slack(assignment)) for c in lp.constraints]


def is_feasible(lp: RationalLp, assignment: dict[str, Fraction]) -> bool:
    return all(row.satisfied for row in check_feasible(lp, assignment))


def _solve_square(rows: list[Constraint]) -> dict[str, Fraction] | None:
    """Solve the 4x4 system treating the rows as equalities; None if singular."""
    n = len(VARIABLES)
    mat = [[row.coeffs.get(v, Fraction(0)) for v in VARIABLES] + [row.rhs] for row in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return {v: mat[i][n] for i, v in enumerate(VARIABLES)}


def enumerate_basic_feasible(lp: RationalLp) -> list[dict[str, Fraction]]:
    """All vertices of the feasible polytope (basic feasible solutions)."""
    out: list[dict[str, Fraction]] = []
    seen: set[tuple[Fraction, ...]] = set()
    for rows in combinations(lp.constraints, len(VARIABLES)):
        point = _solve_square(list(rows))
        if point is None:
            continue
        key = tuple(point[v] for v in VARIABLES)
        if key in seen:
            continue
        seen.add(key)
        if is_feasible(lp, point):
            out.append(point)
    return out


def solve(lp: RationalLp) -> tuple[Fraction, dict[str, Fraction]]:
    """Exact optimum of the (bounded, feasible) LP, maximizing the
    objective variable; deterministic tie-break by lexicographic
    assignment over (epsilon, c3, c4, tau)."""
    points = enumerate_basic_feasible(lp)
    if not points:
        raise Infeasible("no basic feasible solution")
    best = max(points, key=lambda p: (p[OBJECTIVE],) + tuple(-p[v] for v in VARIABLES))
    # Unboundedness guard: the objective must not admit an improving ray.
    # With all case constraints present the objective is bounded; a crude
    # certificate: some constraint upper-bounds the objective variable.
    bounded = any(
        c.relation == LE and c.coeffs.get(OBJECTIVE, 0) > 0 for c in lp.constraints
    )
    if not bounded:
        raise Unbounded(f"no constraint upper-bounds {OBJECTIVE}")
    return best[OBJECTIVE], best

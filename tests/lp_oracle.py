"""Two-phase dense simplex over Fractions: the general-form LP oracle that
the library's slack-form solver (``toricmld.linprog.solve_lp_max_slack``)
and the interior ray infimum are compared against.

It also keeps ``primitive_normal``, the ``Fraction`` route from the ray
program's pricing normal to the flat builder's ray witness.

Problem form:  minimize c.x  subject to  A[i].x (sense[i]) b[i],  x >= 0,
with senses "<=", ">=", "==".  The result carries the optimal point, the
objective, and the row pricing vector y = c_B B^{-1} ("duals"): at
optimality  c_j - y.A_j >= 0  for every column.  Pivoting follows Bland's
rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from toricmld.errors import InputError
from toricmld.linprog import OPTIMAL, UNBOUNDED

INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpResult:
    """Status, and at an optimum the point, objective and duals as Fractions."""

    status: str
    x: tuple[Fraction, ...] | None
    objective: Fraction | None
    duals: tuple[Fraction, ...] | None


def solve_lp(c, rows, minimize: bool = True) -> LpResult:
    """Solve min (or max) c.x over A x (senses) b, x >= 0."""
    c = [Fraction(v) for v in c]
    rows = list(rows)
    n = len(c)
    norm_rows = []
    for coeffs, sense, rhs in rows:
        coeffs = [Fraction(v) for v in coeffs]
        if len(coeffs) != n:
            raise InputError("constraint length does not match the objective")
        rhs = Fraction(rhs)
        if sense not in ("<=", ">=", "=="):
            raise InputError(f"unknown sense {sense!r}")
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        norm_rows.append((coeffs, sense, rhs))
    obj = c if minimize else [-v for v in c]

    m = len(norm_rows)
    # columns: n structural | m slack/surplus | m artificial
    width = n + 2 * m
    tableau: list[list[Fraction]] = []
    rhs_col: list[Fraction] = []
    for i, (coeffs, sense, rhs) in enumerate(norm_rows):
        row = coeffs + [Fraction(0)] * (2 * m)
        if sense == "<=":
            row[n + i] = Fraction(1)
        elif sense == ">=":
            row[n + i] = Fraction(-1)
        row[n + m + i] = Fraction(1)
        tableau.append(row)
        rhs_col.append(rhs)
    basis = [n + m + i for i in range(m)]

    def pivot(row_i: int, col_j: int) -> None:
        piv = tableau[row_i][col_j]
        inv = Fraction(1) / piv
        tableau[row_i] = [v * inv for v in tableau[row_i]]
        rhs_col[row_i] *= inv
        for r in range(m):
            if r != row_i and tableau[r][col_j]:
                f = tableau[r][col_j]
                tableau[r] = [a - f * b for a, b in zip(tableau[r], tableau[row_i])]
                rhs_col[r] -= f * rhs_col[row_i]
        basis[row_i] = col_j

    def run_phase(cost: list[Fraction], allowed: int) -> str:
        """Bland simplex on the current tableau; ``allowed`` bounds entering
        columns. Returns OPTIMAL or UNBOUNDED."""
        while True:
            y = _pricing(cost)
            entering = None
            for j in range(allowed):
                if j in basis:
                    continue
                reduced = cost[j] - sum(y[r] * tableau[r][j] for r in range(m))
                if reduced < 0:
                    entering = j
                    break
            if entering is None:
                return OPTIMAL
            leaving = None
            best = None
            for r in range(m):
                a = tableau[r][entering]
                if a > 0:
                    ratio = rhs_col[r] / a
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                        best = ratio
                        leaving = r
            if leaving is None:
                return UNBOUNDED
            pivot(leaving, entering)

    def _pricing(cost: list[Fraction]) -> list[Fraction]:
        # with a fully reduced tableau, basic columns are unit vectors, so the
        # multiplier of row r is just the basic cost of that row
        return [cost[basis[r]] for r in range(m)]

    # phase 1: minimize the sum of artificials
    phase1_cost = [Fraction(0)] * (n + m) + [Fraction(1)] * m
    status = run_phase(phase1_cost, width)
    assert status == OPTIMAL, "phase 1 is always bounded below by 0"
    if sum(rhs_col[r] for r in range(m) if basis[r] >= n + m) > 0:
        return LpResult(INFEASIBLE, None, None, None)
    # drive leftover degenerate artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n + m:
            col = next((j for j in range(n + m) if tableau[r][j] != 0), None)
            if col is not None:
                pivot(r, col)

    # phase 2 on the real objective; artificial columns may not re-enter
    phase2_cost = obj + [Fraction(0)] * (2 * m)
    status = run_phase(phase2_cost, n + m)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, None)

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = rhs_col[r]
    value = sum(ci * xi for ci, xi in zip(obj, x))
    # duals off the artificial block: that block holds B^{-1} because the
    # artificials started as the identity on every row
    cb = [phase2_cost[basis[r]] for r in range(m)]
    duals = []
    for i in range(m):
        duals.append(sum(cb[r] * tableau[r][n + m + i] for r in range(m)))
    # undo the sign normalization applied to rows with negative rhs
    signed = []
    for i, (coeffs, sense, rhs) in enumerate(rows):
        flipped = Fraction(rhs) < 0
        signed.append(-duals[i] if flipped else duals[i])
    if not minimize:
        value = -value
        signed = [-y for y in signed]
    return LpResult(OPTIMAL, tuple(x), value, tuple(signed))


def primitive_normal(lat, res):
    """Primitive lattice point on the ray of the pricing normal of ``res``, a
    ``newton.FirstIntersection``, found over ``Fraction``s by
    ``Lattice.primitive_scale``; None when there is no normal."""
    if res.mu_num is None or not any(res.y_num):
        return None
    k = lat.primitive_scale(res.y_num)
    return tuple(Fraction(c, k) for c in res.y_num)

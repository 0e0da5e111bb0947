"""Exact linear programming over integer rows by single-phase dense simplex.

Problems here are tiny (a handful of variables or constraints), so the
priority is exactness and determinism, not speed: pivoting follows Bland's
rule (smallest eligible index enters, smallest index breaks ratio ties),
which rules out cycling and makes the returned basic solution reproducible.

Problem form:  maximize c.x  subject to  A[i].x <= b[i],  x >= 0,  b >= 0,
with every entry a Python int.  The solver works on one integer tableau
whose last row is the objective, and reads the optimal point, the objective
and the row multipliers ("duals", the certificate used throughout the tests)
off it as integers over two denominators, so every step stays in Python
ints.  The general-form two-phase solver that the tests compare it with
lives in ``tests/lp_oracle.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import InputError

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    """Outcome of ``solve_lp_max_slack``.  At an optimum the point is
    ``x_num`` over ``x_den``, and the objective ``obj_num`` and the row
    multipliers ``dual_num`` are over ``obj_scale`` (all None when
    unbounded)."""

    status: str
    x_num: tuple[int, ...] | None = None
    x_den: int = 1
    obj_num: int | None = None
    dual_num: tuple[int, ...] | None = None
    obj_scale: int = 1


def solve_lp_max_slack(c, rows) -> LpResult:
    """Single-phase simplex for max c.x, A x <= b, x >= 0 with b >= 0.

    The slack basis is feasible from the start, so no artificials are needed;
    this is the hot path for the ray-intersection programs.  ``c`` and the
    (coefficients, rhs) pairs of ``rows`` hold Python ints.  Duals are the
    standard multipliers of the <= constraints (nonnegative for a max
    problem).

    Every row of the one integer tableau is [x, slacks, objective column,
    rhs], and the objective is the last row:  row . (x, s) + obj_scale * c.x
    = rhs, so its objective column is the positive scale ``obj_scale``.  A
    fraction-free pivot eliminates the entering column from every other row,
    gcd-reducing each row it changes, then reduces the pivot row.  Pivoting
    decisions are integer comparisons, and the result is read off in
    integers: the basic values over the lcm of their pivots, and the rhs and
    slack columns of the objective row over its objective column.
    """
    n, m = len(c), len(rows)
    tableau: list[list[int]] = []
    for i, (coeffs, rhs) in enumerate(rows):
        if len(coeffs) != n:
            raise InputError("constraint length does not match the objective")
        if rhs < 0:
            raise InputError("slack start requires nonnegative right-hand sides")
        tableau.append([*coeffs, *[0] * i, 1, *[0] * (m - i), rhs])  # slack i, objective column 0
    # the objective row of the minimization of -c.x, with obj_scale 1 and rhs 0
    tableau.append([-v for v in c] + [0] * m + [1, 0])
    basis = list(range(n, n + m))

    while True:
        obj = tableau[m]
        entering = next((j for j in range(n + m) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best_num = best_den = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                # compare rhs_r/a with the running best by cross-multiplication
                rhs = tableau[r][-1]
                if leaving is None or rhs * best_den < best_num * a or (
                    rhs * best_den == best_num * a and basis[r] < basis[leaving]
                ):
                    leaving, best_num, best_den = r, rhs, a
        if leaving is None:
            return LpResult(UNBOUNDED)
        piv_row = tableau[leaving]
        piv = piv_row[entering]
        for r, row in enumerate(tableau):
            f = row[entering]
            if r != leaving and f:
                new = [piv * a - f * b for a, b in zip(row, piv_row)]
                g = gcd(*new)
                tableau[r] = [v // g for v in new] if g > 1 else new
        g = gcd(*piv_row)
        if g > 1:
            tableau[leaving] = [v // g for v in piv_row]
        basis[leaving] = entering

    x_den = lcm(*(tableau[r][j] for r, j in enumerate(basis) if j < n))
    x_num = [0] * n
    for r, j in enumerate(basis):
        if j < n:
            x_num[j] = tableau[r][-1] * (x_den // tableau[r][j])
    return LpResult(OPTIMAL, tuple(x_num), x_den, obj[-1], tuple(obj[n:-2]), obj[-2])

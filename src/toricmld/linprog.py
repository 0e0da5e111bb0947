"""Exact linear programming over integer rows by single-phase dense simplex.

Problems here are tiny (a handful of variables or constraints), so the
priority is exactness and determinism, not speed: pivoting follows Bland's
rule (smallest eligible index enters, smallest index breaks ratio ties),
which rules out cycling and makes the returned basic solution reproducible.

Problem form:  maximize c.x  subject to  A[i].x <= b[i],  x >= 0,  b >= 0,
with every entry a Python int.  The result carries the optimal point, the
objective, and the row multipliers ("duals"), which are the certificate used
throughout the tests, as integers over two denominators, so every step
stays in Python ints.  The general-form two-phase solver that the tests
compare it with lives in ``tests/lp_oracle.py``.
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

    The objective row is carried through the same fraction-free pivots as
    the constraint rows, with its own positive scale ``obj_scale`` and
    right-hand side (the objective value times that scale), and rows are
    gcd-reduced after each pivot.  All pivoting decisions are pure integer
    comparisons, and the result is read off in integers too: the basic
    values over the lcm of their pivots, the objective and the slack columns
    of the objective row over ``obj_scale``.
    """
    n = len(c)
    m = len(rows)
    tableau: list[list[int]] = []
    rhs_col: list[int] = []
    for coeffs, rhs in rows:
        if len(coeffs) != n:
            raise InputError("constraint length does not match the objective")
        if rhs < 0:
            raise InputError("slack start requires nonnegative right-hand sides")
        row = list(coeffs) + [0] * m
        row[n + len(tableau)] = 1
        tableau.append(row)
        rhs_col.append(rhs)
    # objective row of the minimization of -c.x: obj . (x, s) + obj_scale * c.x = obj_rhs
    obj = [-v for v in c] + [0] * m
    obj_scale = 1
    obj_rhs = 0
    basis = list(range(n, n + m))

    width = n + m
    while True:
        entering = None
        for j in range(width):
            if obj[j] < 0:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        best_num = best_den = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                # compare rhs_r/a with the running best by cross-multiplication
                if (
                    leaving is None
                    or rhs_col[r] * best_den < best_num * a
                    or (rhs_col[r] * best_den == best_num * a and basis[r] < basis[leaving])
                ):
                    leaving = r
                    best_num, best_den = rhs_col[r], a
        if leaving is None:
            return LpResult(UNBOUNDED)
        piv_row = tableau[leaving]
        piv = piv_row[entering]
        piv_rhs = rhs_col[leaving]
        for r in range(m):
            if r != leaving and tableau[r][entering]:
                f = tableau[r][entering]
                new = [piv * a - f * b for a, b in zip(tableau[r], piv_row)]
                new_rhs = piv * rhs_col[r] - f * piv_rhs
                g = gcd(new_rhs, *new)
                if g > 1:
                    new = [v // g for v in new]
                    new_rhs //= g
                tableau[r] = new
                rhs_col[r] = new_rhs
        if obj[entering]:
            f = obj[entering]
            obj = [piv * a - f * b for a, b in zip(obj, piv_row)]
            obj_rhs = piv * obj_rhs - f * piv_rhs
            obj_scale *= piv
            g = gcd(obj_scale, obj_rhs, *obj)
            if g > 1:
                obj = [v // g for v in obj]
                obj_rhs //= g
                obj_scale //= g
        g = gcd(piv_rhs, *piv_row)
        if g > 1:
            tableau[leaving] = [v // g for v in piv_row]
            rhs_col[leaving] = piv_rhs // g
        basis[leaving] = entering

    x_den = lcm(*(tableau[r][j] for r, j in enumerate(basis) if j < n))
    x_num = [0] * n
    for r, j in enumerate(basis):
        if j < n:
            x_num[j] = rhs_col[r] * (x_den // tableau[r][j])
    return LpResult(OPTIMAL, tuple(x_num), x_den, obj_rhs, tuple(obj[n:]), obj_scale)


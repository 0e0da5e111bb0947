"""Exact rational linear programming by two-phase dense simplex.

Problems here are tiny (a handful of variables or constraints), so the
priority is exactness and determinism, not speed: every entry is a Fraction,
pivoting follows Bland's rule (smallest eligible index enters, smallest
index breaks ratio ties), which rules out cycling and makes the returned
basic solution reproducible.

Problem form:  minimize c.x  subject to  A[i].x (sense[i]) b[i],  x >= 0,
with senses "<=", ">=", "==".  The result carries the optimal point, the
objective, and the row pricing vector y = c_B B^{-1} ("duals"): at
optimality  c_j - y.A_j >= 0  for every column, which is the certificate
used throughout the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: str
    x: tuple[Fraction, ...] | None
    objective: Fraction | None
    duals: tuple[Fraction, ...] | None


def solve_lp_max_slack(c, rows) -> LpResult:
    """Single-phase simplex for max c.x, A x <= b, x >= 0 with b >= 0.

    The slack basis is feasible from the start, so no artificials are needed;
    this is the hot path for the ray-intersection programs.  ``rows`` is a
    list of (coefficients, rhs).  Duals are the standard multipliers of the
    <= constraints (nonnegative for a max problem).

    Internally every constraint row is kept as an integer vector (scaling a
    constraint by a positive rational is free), the objective row is carried
    through the same fraction-free pivots with its own positive scale, and
    rows are gcd-reduced after each pivot.  All pivoting decisions are pure
    integer comparisons; Fractions only appear when reading the answer off.
    Entries that are ints or Fractions are used as given (both carry
    ``numerator`` and ``denominator``); anything else is read by Fraction.
    """
    from math import gcd, lcm

    n = len(c)
    m = len(rows)
    tableau: list[list[int]] = []
    rhs_col: list[int] = []
    for coeffs, rhs in rows:
        coeffs = [_exact(v) for v in coeffs]
        rhs = _exact(rhs)
        if len(coeffs) != n:
            raise InputError("constraint length does not match the objective")
        if rhs < 0:
            raise InputError("slack start requires nonnegative right-hand sides")
        den = lcm(rhs.denominator, *(v.denominator for v in coeffs))
        row = [v.numerator * (den // v.denominator) for v in coeffs] + [0] * m
        row[n + len(tableau)] = den
        tableau.append(row)
        rhs_col.append(rhs.numerator * (den // rhs.denominator))
    cfrac = [_exact(v) for v in c]
    cden = lcm(*(v.denominator for v in cfrac))
    # objective row of the minimization of -c.x, with positive scale obj_scale
    obj = [-v.numerator * (cden // v.denominator) for v in cfrac] + [0] * m
    obj_scale = cden
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
            return LpResult(UNBOUNDED, None, None, None)
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
            obj_scale *= piv
            g = gcd(obj_scale, *obj)
            if g > 1:
                obj = [v // g for v in obj]
                obj_scale //= g
        g = gcd(piv_rhs, *piv_row)
        if g > 1:
            tableau[leaving] = [v // g for v in piv_row]
            rhs_col[leaving] = piv_rhs // g
        basis[leaving] = entering

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(rhs_col[r], tableau[r][basis[r]])
    value = sum((ci * xi for ci, xi in zip(cfrac, x)), start=Fraction(0))
    duals = tuple(Fraction(obj[n + j], obj_scale) for j in range(m))
    return LpResult(OPTIMAL, tuple(x), value, duals)


def _exact(v):
    return v if type(v) is int or isinstance(v, Fraction) else Fraction(v)


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

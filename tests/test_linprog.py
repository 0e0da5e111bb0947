from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from toricmld.errors import InputError
from lp_oracle import INFEASIBLE, solve_lp
from toricmld.linprog import OPTIMAL, UNBOUNDED, solve_lp_max_slack

LINPROG = Path(__file__).resolve().parents[1] / "src" / "toricmld" / "linprog.py"


def read(res):
    """(x, objective, duals) of a slack-form optimum as ``Fraction``s, read
    off its integers: x_num over x_den, obj_num and dual_num over obj_scale."""
    x = tuple(F(v, res.x_den) for v in res.x_num)
    return x, F(res.obj_num, res.obj_scale), tuple(F(v, res.obj_scale) for v in res.dual_num)


def test_known_minimum_with_equality():
    res = solve_lp([0, 0, 1], [([2, 0, -1], "<=", 0), ([0, 3, -1], "<=", 0), ([1, 1, 0], "==", 1)])
    assert res.status == OPTIMAL
    assert res.x == (F(3, 5), F(2, 5), F(6, 5))
    assert res.objective == F(6, 5)


def test_infeasible_and_unbounded():
    assert solve_lp([1], [([1], "<=", -1)]).status == INFEASIBLE
    assert solve_lp([1], [([1], ">=", 3)], minimize=False).status == UNBOUNDED


def test_redundant_equalities():
    res = solve_lp([1], [([1], "==", 1), ([2], "==", 2)])
    assert res.status == OPTIMAL and res.x == (F(1),)


def test_bad_input():
    with pytest.raises(InputError):
        solve_lp([1, 2], [([1], "<=", 0)])
    with pytest.raises(InputError):
        solve_lp([1], [([1], "<>", 0)])
    with pytest.raises(InputError):
        solve_lp_max_slack([1], [([1], -1)])
    with pytest.raises(InputError):
        solve_lp_max_slack([1, 2], [([1], 0)])


def test_slack_form_matches_general_form():
    c = [3, 5]
    rows = [([1, 0], 4), ([0, 2], 12), ([3, 2], 18)]
    fast = solve_lp_max_slack(c, rows)
    slow = solve_lp(c, [(a, "<=", b) for a, b in rows], minimize=False)
    assert fast.status == slow.status == OPTIMAL
    x, objective, _ = read(fast)
    assert objective == slow.objective == 36
    assert x == (F(2), F(6))


def _check_certificate(c, rows, res):
    """Primal feasibility, dual feasibility, equal objectives: a complete
    optimality proof for max c.x, A x <= b, x >= 0."""
    x, objective, duals = read(res)
    assert all(xi >= 0 for xi in x)
    for (coeffs, rhs), y in zip(rows, duals):
        assert sum(a * xi for a, xi in zip(coeffs, x)) <= rhs
        assert y >= 0
    for j, cj in enumerate(c):
        assert sum(duals[i] * rows[i][0][j] for i in range(len(rows))) >= cj
    assert objective == sum(duals[i] * rows[i][1] for i in range(len(rows)))


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_random_slack_instances_carry_certificates(n, m, data):
    c = [data.draw(st.integers(-4, 6)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [data.draw(st.integers(-3, 5)) for _ in range(n)]
        rhs = data.draw(st.integers(0, 9))
        rows.append((coeffs, rhs))
    # keep the region bounded so the certificate branch always runs
    rows.append(([1] * n, 20))
    res = solve_lp_max_slack(c, rows)
    assert res.status == OPTIMAL
    _check_certificate(c, rows, res)
    assert all(type(v) is int for v in res.x_num + res.dual_num + (res.x_den, res.obj_num, res.obj_scale))


@given(st.data())
def test_random_general_instances_agree_with_slack_form(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    c = [data.draw(st.integers(-3, 5)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [data.draw(st.integers(-3, 5)) for _ in range(n)]
        rows.append((coeffs, data.draw(st.integers(0, 8))))
    rows.append(([1] * n, 15))
    fast = solve_lp_max_slack(c, rows)
    slow = solve_lp(c, [(a, "<=", b) for a, b in rows], minimize=False)
    assert fast.status == slow.status == OPTIMAL
    assert read(fast)[1] == slow.objective


def test_the_solver_builds_no_fraction():
    """The rows are integers and so is every step: the module names no
    ``Fraction``."""
    text = LINPROG.read_text(encoding="utf-8")
    assert "Fraction" not in text and "fractions" not in text

import random
from dataclasses import astuple
from fractions import Fraction as F
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from toricmld.errors import InputError
from lp_oracle import INFEASIBLE, solve_lp
from toricmld.linprog import OPTIMAL, UNBOUNDED, solve_lp_max_slack

LINPROG = Path(__file__).resolve().parents[1] / "src" / "toricmld" / "linprog.py"

# sha256 over every field of the solver's result on the seeded instances of
# ``_pinned_instances``, recorded before the objective moved into the last row
# of the tableau; any change to a pivot, a gcd step or a read-off shows here.
PINNED_DIGEST = "a4ee5e9acddb7d17606522e4e0b9f6394b14a371168069d20cf25378d1f28715"


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


def _pinned_instances(count=2000, seed=20061):
    """Seeded small programs: n and m from 0 to 4 (so ``m = 0`` and ``n = 0``
    occur), entries in [-2, 3] and right-hand sides mostly 0 to 3, so ratio
    ties and degenerate pivots are common; about a third have no bounding
    row and many of those are unbounded."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        c = [rng.randint(-2, 3) for _ in range(n)]
        rows = [([rng.randint(-2, 3) for _ in range(n)], rng.choice((0, 0, 1, 2, 3))) for _ in range(m)]
        if rng.random() < 0.65:
            rows.append(([1] * n, rng.randint(0, 6)))
        yield c, rows


def test_the_solver_answers_are_pinned():
    """The certificate tests accept any optimum; this pins the exact one:
    the point, the objective and the duals over their denominators, and the
    status, of every pinned instance, as the Bland rule picks them."""
    digest, statuses = sha256(), {}
    for c, rows in _pinned_instances():
        res = solve_lp_max_slack(c, rows)
        digest.update(repr(astuple(res)).encode())
        statuses[res.status] = statuses.get(res.status, 0) + 1
    assert statuses[OPTIMAL] > 1000 and statuses[UNBOUNDED] > 200
    assert digest.hexdigest() == PINNED_DIGEST


def test_the_ratio_tie_break_decides_the_optimal_vertex():
    """max x1 + 2 x2 over x1 + x3 <= 1, x1 + x2 <= 1, x >= 0: every point
    (0, 1, t) with t in [0, 1] is optimal.  Each tableau row is [x1, x2, x3,
    s1, s2, objective column, rhs], the objective row [-1, -2, 0, 0, 0, 1, 0]
    last.

    x1 enters first, and both rows tie at ratio 1; s1, the smaller basic
    index, leaves.  x2 then enters on row 2 at ratio 0 (objective row
    [0, 0, -1, -1, 2, 1, 1]), and x3 on row 1 (objective row
    [1, 0, 0, 0, 2, 1, 2]).  So x = (0, 1, 1) over 1, and the objective 2
    and the duals (0, 2) over scale 1.  Had s2 left first, the run would end
    at x = (0, 1, 0)."""
    res = solve_lp_max_slack([1, 2, 0], [([1, 0, 1], 1), ([1, 1, 0], 1)])
    assert astuple(res) == (OPTIMAL, (0, 1, 1), 1, 2, (0, 2), 1)

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbound import simplex
from relbound.simplex import solve_lp


def test_basic_maximisation():
    # max x + y s.t. x + y <= 1, x <= 0.6
    res = solve_lp(
        np.array([1.0, 1.0]),
        a_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
        b_ub=np.array([1.0, 0.6]),
        maximize=True,
    )
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_classic_two_variable():
    # min -2x - 3y s.t. x + y <= 100, 6x + 3y <= 360, x + 2y <= 120
    res = solve_lp(
        np.array([-2.0, -3.0]),
        a_ub=np.array([[1.0, 1.0], [6.0, 3.0], [1.0, 2.0]]),
        b_ub=np.array([100.0, 360.0, 120.0]),
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([40.0, 40.0], abs=1e-8)
    assert res.value == pytest.approx(-200.0, abs=1e-8)


def test_equality_constraint():
    # min x + 2y with x + y = 1
    res = solve_lp(
        np.array([1.0, 2.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([1.0, 0.0], abs=1e-9)


def test_infeasible_detected():
    # x >= 2 (as -x <= -2) with x + y = 1, x, y >= 0 is impossible
    res = solve_lp(
        np.array([1.0, 1.0]),
        a_ub=np.array([[-1.0, 0.0]]),
        b_ub=np.array([-2.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
    )
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = solve_lp(np.array([-1.0, 0.0]))
    assert res.status == "unbounded"


def test_redundant_equalities():
    res = solve_lp(
        np.array([1.0, 1.0, 1.0]),
        a_eq=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]),
        b_eq=np.array([1.0, 1.0, 2.0]),
    )
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_degenerate_vertex():
    # several constraints meet at the optimum; Bland must not cycle
    res = solve_lp(
        np.array([-1.0, -1.0]),
        a_ub=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]]),
        b_ub=np.array([0.5, 0.5, 1.0, 1.0]),
    )
    assert res.status == "optimal"
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def _enumerate_optimum(c, a_ub, b_ub, a_eq, b_eq, maximize):
    """Tiny-LP oracle: evaluate every vertex (all square tight subsets)."""
    n = c.size
    rows = [(a, b, "ub") for a, b in zip(a_ub, b_ub)]
    rows += [(a, b, "eq") for a, b in zip(a_eq, b_eq)]
    rows += [(unit, 0.0, "bound") for unit in np.eye(n)]
    must = [i for i, r in enumerate(rows) if r[2] == "eq"]
    best = None
    feasible_found = False
    for combo in itertools.combinations(range(len(rows)), n):
        if any(i not in combo for i in must):
            continue
        mat = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(mat)) < 1e-9:
            continue
        x = np.linalg.solve(mat, rhs)
        if np.any(x < -1e-9):
            continue
        if any(a @ x > b + 1e-9 for a, b, kind in rows if kind == "ub"):
            continue
        if any(abs(a @ x - b) > 1e-9 for a, b, kind in rows if kind == "eq"):
            continue
        feasible_found = True
        value = float(c @ x)
        if best is None or (value > best if maximize else value < best):
            best = value
    return best, feasible_found


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(1, 3),
    st.data(),
)
def test_agrees_with_vertex_enumeration(n, m, data):
    ints = st.integers(-3, 3)
    c = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)
    a_ub = np.array(
        [data.draw(st.lists(ints, min_size=n, max_size=n)) for _ in range(m)],
        dtype=float,
    )
    b_ub = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), dtype=float)
    a_eq = np.ones((1, n))
    b_eq = np.ones(1)  # simplex-style normalisation keeps everything bounded
    expected, feasible = _enumerate_optimum(c, a_ub, b_ub, a_eq, b_eq, maximize=False)
    res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    if not feasible:
        assert res.status == "infeasible"
    else:
        assert res.status == "optimal"
        assert res.value == pytest.approx(expected, abs=1e-7)


def test_wide_problem_with_tiny_coefficients():
    # columns whose only distinction is an e^-20-scale entry in the
    # objective must still be ranked via the normalisation row
    n = 50
    lik = np.exp(-np.linspace(0.0, 20.0, n))
    gains = np.linspace(1.0, 0.0, n)
    res = solve_lp(
        lik * gains,
        a_eq=lik.reshape(1, -1),
        b_eq=np.ones(1),
        maximize=True,
    )
    assert res.status == "optimal"
    # best ratio of gain achievable: the largest gain with nonzero likelihood
    assert res.value == pytest.approx(1.0, abs=1e-9)


def _reference_pivot(T, z, basis, i, j):
    """Reference pivot: the rank-1 update as one ``np.outer``."""
    T[i] /= T[i, j]
    col = T[:, j].copy()
    col[i] = 0.0
    T -= np.outer(col, T[i])
    if z[j] != 0.0:
        z -= z[j] * T[i]
    basis[i] = j


def _reference_pivot_loop(T, z, basis, n_cols, max_iter=100_000, stop_value=None):
    """Reference pivot loop: the ratio test on numpy arrays."""
    blocked: set[int] = set()
    stalled = 0
    for _ in range(max_iter):
        if stop_value is not None and -z[-1] <= stop_value:
            return "optimal"
        costs = z[:n_cols]
        if blocked:
            costs = costs.copy()
            costs[list(blocked)] = 0.0
        if stalled < simplex._STALL_LIMIT:
            j = int(np.argmin(costs))
            if costs[j] >= -simplex._COST_TOL:
                return "optimal"
        else:
            negative = np.nonzero(costs < -simplex._COST_TOL)[0]
            if negative.size == 0:
                return "optimal"
            j = int(negative[0])
        col = T[:, j]
        rows = np.nonzero(col > simplex._PIVOT_TOL)[0]
        if rows.size == 0:
            if z[j] > -simplex._RAY_TOL:
                blocked.add(j)
                continue
            return "unbounded"
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        i = min(ties, key=lambda r: basis[r])
        before = z[-1]
        _reference_pivot(T, z, basis, int(i), j)
        stalled = stalled + 1 if z[-1] <= before + 1e-15 else 0
    raise RuntimeError("simplex iteration limit reached")


def _pivot_by_rows(T, z, basis, i, j):
    """Reference pivot: one row at a time, skipping rows already zero in column j."""
    T[i] /= T[i, j]
    for r in range(T.shape[0]):
        if r != i and T[r, j] != 0.0:
            T[r] -= T[r, j] * T[i]
    if z[j] != 0.0:
        z -= z[j] * T[i]
    basis[i] = j


@pytest.mark.parametrize("seed", range(20))
def test_rank_one_pivot_matches_row_by_row(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 8)), int(rng.integers(2, 60))
    T = rng.normal(size=(m, n + 1)) * 10.0 ** rng.integers(-6, 7, size=(m, n + 1))
    T[rng.random((m, n + 1)) < 0.3] = 0.0
    z = rng.normal(size=n + 1)
    z[rng.random(n + 1) < 0.3] = 0.0
    T_ref, z_ref = T.copy(), z.copy()
    basis, basis_ref = list(range(m)), list(range(m))
    for _ in range(5):
        i, j = int(rng.integers(m)), int(rng.integers(n))
        if T[i, j] == 0.0:
            continue
        T_outer, z_outer, basis_outer = T.copy(), z.copy(), list(basis)
        simplex._pivot(T, z, basis, i, j)
        _pivot_by_rows(T_ref, z_ref, basis_ref, i, j)
        _reference_pivot(T_outer, z_outer, basis_outer, i, j)
        assert np.array_equal(T, T_ref)
        assert np.array_equal(z, z_ref)
        assert basis == basis_ref
        # bytes, so that a -0.0 where the outer product gave +0.0 fails
        assert T.tobytes() == T_outer.tobytes()
        assert z.tobytes() == z_outer.tobytes()


def _run_loop(loop, T, z, basis, **kwargs):
    """Run a pivot loop on copies; the status is the exception type if it raised."""
    T, z, basis = T.copy(), z.copy(), list(basis)
    try:
        status = loop(T, z, basis, **kwargs)
    except (RuntimeError, ValueError) as exc:
        status = type(exc)
    return status, T, z, basis


def _assert_loop_matches_reference(T, z, basis, **kwargs):
    """The pivot loop returns what its reference returns and leaves the
    same tableau, objective row and basis, byte for byte."""
    want = _run_loop(_reference_pivot_loop, T, z, basis, **kwargs)
    got = _run_loop(simplex._pivot_loop, T, z, basis, **kwargs)
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
    assert got[3] == want[3]
    return want[0]


def _canonical(A, b, c):
    """The phase-2 tableau of min c x s.t. A x + s = b, with the slacks basic."""
    m, n = A.shape
    T = np.hstack([A, np.eye(m), b[:, None]])
    z = np.concatenate([c, np.zeros(m + 1)])
    return T, z, list(range(n, n + m))


def test_pivot_loop_breaks_ties_like_reference():
    # x0 enters with ratio 1 on rows 0 and 1, exactly 1e-12 more on row 2
    # (still a tie) and 2e-12 more on row 3 (not a tie); the tie goes to
    # row 2, whose basic variable has the smallest index among the tied
    basis = [4, 3, 2, 1]
    T = np.zeros((4, 6))
    T[:, 0] = 1.0
    T[range(4), basis] = 1.0
    T[:, -1] = [1.0, 1.0, 1.0 + 1e-12, 1.0 + 2e-12]
    z = np.zeros(6)
    z[0] = -1.0
    assert _assert_loop_matches_reference(T, z, basis, n_cols=5) == "optimal"
    assert _run_loop(simplex._pivot_loop, T, z, basis, n_cols=5)[3] == [4, 3, 0, 1]


def test_pivot_loop_on_degenerate_stretch_matches_reference(monkeypatch):
    # Beale's example: Dantzig's rule cycles through degenerate pivots
    # until the loop switches to Bland's rule after _STALL_LIMIT of them
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    T, z, basis = _canonical(A, np.array([0.0, 0.0, 1.0]), np.array([-0.75, 20.0, -0.5, 6.0]))
    pivots = 0
    pivot = simplex._pivot

    def counting_pivot(*args):
        nonlocal pivots
        pivots += 1
        pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counting_pivot)
    assert _assert_loop_matches_reference(T, z, basis, n_cols=7) == "optimal"
    assert pivots > simplex._STALL_LIMIT


def test_pivot_loop_blocks_zero_cost_ray_like_reference():
    # x0 has the steepest reduced cost, but no positive entry and a cost
    # within _RAY_TOL of zero: it is blocked, and x1 enters instead
    T, z, basis = _canonical(
        np.array([[-1.0, 1.0], [0.0, 2.0]]), np.array([2.0, 3.0]), np.array([-5e-7, -1e-7])
    )
    assert _assert_loop_matches_reference(T, z, basis, n_cols=4) == "optimal"
    assert _run_loop(simplex._pivot_loop, T, z, basis, n_cols=4)[3] == [2, 1]


def test_pivot_loop_reports_unbounded_like_reference():
    T, z, basis = _canonical(
        np.array([[-1.0, 1.0], [0.0, 2.0]]), np.array([2.0, 3.0]), np.array([-1.0, -2.0])
    )
    assert _assert_loop_matches_reference(T, z, basis, n_cols=4) == "unbounded"


def test_pivot_loop_raises_on_nan_ratio_like_reference():
    for rhs in ([np.nan, 1.0], [1.0, np.nan]):
        T, z, basis = _canonical(np.ones((2, 2)), np.array(rhs), np.array([-1.0, 0.0]))
        assert _assert_loop_matches_reference(T, z, basis, n_cols=4) is ValueError


@pytest.mark.parametrize("seed", range(60))
def test_pivot_loop_matches_reference(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(2, 80))
    if seed % 3 == 0:  # small integers: ties and degenerate vertices abound
        A = rng.integers(-2, 4, size=(m, n)).astype(float)
        b = rng.integers(0, 3, size=m).astype(float)
    else:
        A = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-4, 5, size=(m, n))
        b = rng.random(m) * (rng.random(m) < 0.7)
    if seed % 5:  # a positive first row bounds the program
        A[0] = np.abs(A[0]) + 0.1
        b[0] = 1.0
    T, z, basis = _canonical(A, b, rng.normal(size=n))
    status = _assert_loop_matches_reference(T, z, basis, n_cols=n + m)
    assert status in ("optimal", "unbounded")
    # cut short: both run out of iterations at the same state
    assert _assert_loop_matches_reference(T, z, basis, n_cols=n + m, max_iter=1) in (
        "optimal",
        "unbounded",
        RuntimeError,
    )
    # stopped, as phase 1 is, once the objective falls to a given value
    _assert_loop_matches_reference(T, z, basis, n_cols=n + m, stop_value=-float(rng.random()))


def _assert_same(a, b):
    assert a.status == b.status
    assert a.value == b.value
    if a.x is None:
        assert b.x is None
    else:
        assert np.array_equal(a.x, b.x)


#: constraint sets that exercise every outcome of phase 1, by name
CONSTRAINT_SETS = {
    # a window-like program: <= rows through the origin, normalised mass
    "window": (
        5,
        dict(
            a_ub=np.array([[1.0, -2.0, 0.5, 3.0, -1.0], [-1.0, 1.0, 2.0, -0.5, 0.0]]),
            b_ub=np.zeros(2),
            a_eq=np.ones((1, 5)),
            b_eq=np.ones(1),
        ),
    ),
    # infeasible: x0 >= 2 with x0 + x1 = 1
    "infeasible": (
        2,
        dict(a_ub=np.array([[-1.0, 0.0]]), b_ub=np.array([-2.0]), a_eq=np.ones((1, 2)), b_eq=np.ones(1)),
    ),
    # unbounded for any objective that rewards x0
    "unbounded": (2, dict(a_ub=np.array([[0.0, 1.0]]), b_ub=np.array([1.0]))),
    # no constraint rows at all
    "no-rows": (3, dict()),
    # every row redundant: zero over the variables
    "all-redundant": (3, dict(a_eq=np.zeros((2, 3)), b_eq=np.zeros(2))),
    # one row redundant, one not
    "one-redundant": (3, dict(a_eq=np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]), b_eq=np.array([1.0, 2.0]))),
}


@pytest.mark.parametrize("n,constraints", CONSTRAINT_SETS.values(), ids=CONSTRAINT_SETS.keys())
def test_reused_phase_one_matches_fresh_solve(n, constraints):
    rng = np.random.default_rng(7)
    start = solve_lp(np.zeros(n), **constraints).start
    objectives = [rng.normal(size=n) for _ in range(6)] + [np.zeros(n), np.eye(n)[0]]
    for c in objectives:
        for maximize in (False, True):
            fresh = solve_lp(c, **constraints, maximize=maximize)
            reused = solve_lp(c, **constraints, maximize=maximize, start=start)
            _assert_same(reused, fresh)
            assert reused.start is start


def test_reused_phase_one_reports_each_status():
    infeasible = dict(a_ub=np.array([[-1.0, 0.0]]), b_ub=np.array([-2.0]), a_eq=np.ones((1, 2)), b_eq=np.ones(1))
    start = solve_lp(np.zeros(2), **infeasible).start
    assert solve_lp(np.ones(2), **infeasible, start=start).status == "infeasible"
    open_ray = dict(a_ub=np.array([[0.0, 1.0]]), b_ub=np.array([1.0]))
    start = solve_lp(np.zeros(2), **open_ray).start
    assert solve_lp(np.array([1.0, 0.0]), **open_ray, maximize=True, start=start).status == "unbounded"
    assert solve_lp(np.array([0.0, 1.0]), **open_ray, maximize=True, start=start).value == 1.0


def test_start_from_other_constraints_rejected():
    start = solve_lp(np.zeros(2), a_ub=np.ones((1, 2)), b_ub=np.ones(1)).start
    with pytest.raises(ValueError, match="shape"):
        solve_lp(np.zeros(2), a_ub=np.ones((2, 2)), b_ub=np.ones(2), start=start)


def _objectives(n, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n) for _ in range(6)] + [np.zeros(n), np.eye(n)[0]]


def _standard_form(n, constraints):
    return simplex._standard_form(n, *(constraints.get(k) for k in ("a_ub", "b_ub", "a_eq", "b_eq")))


def _bases(n, constraints):
    """Every choice of one standard-form column per row, and whether it is
    a basis whose basic values are all positive (True), singular or
    negative somewhere (False), or degenerate (None)."""
    A, b = _standard_form(n, constraints)
    m, n_cols = A.shape
    for basis in itertools.permutations(range(n_cols), m):
        B = A[:, list(basis)]
        if abs(np.linalg.det(B)) < 1e-9:
            yield basis, False
            continue
        x_b = np.linalg.solve(B, b)
        yield basis, True if x_b.min() > 1e-9 else False if x_b.min() < -1e-9 else None


@pytest.mark.parametrize(
    "name", ["window", "infeasible", "unbounded", "all-redundant", "one-redundant"]
)
def test_solve_from_basis_matches_cold_solve(name):
    n, constraints = CONSTRAINT_SETS[name]
    for basis, feasible in _bases(n, constraints):
        for c in _objectives(n, 3):
            for maximize in (False, True):
                cold = solve_lp(c, **constraints, maximize=maximize)
                warm = solve_lp(c, **constraints, maximize=maximize, basis=basis)
                if feasible is False:  # refused: the cold solve, bit for bit
                    _assert_cold(warm, cold)
                    continue
                assert warm.status == cold.status
                if cold.status == "optimal":
                    assert warm.value == pytest.approx(cold.value, abs=1e-9)
                if feasible:
                    assert sorted(warm.start.basis) == sorted(basis)


def test_solve_from_basis_starts_there(monkeypatch):
    n, constraints = CONSTRAINT_SETS["window"]
    colds = [(c, solve_lp(c, **constraints, maximize=True)) for c in _objectives(n, 5)]
    pivots = 0
    pivot = simplex._pivot

    def counting_pivot(*args):
        nonlocal pivots
        pivots += 1
        pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counting_pivot)
    for c, cold in colds:
        pivots = 0
        warm = solve_lp(c, **constraints, maximize=True, basis=cold.basis)
        # one pivot per row to set the basis up, none after: it is optimal
        assert pivots == len(cold.basis)
        assert sorted(warm.basis) == sorted(cold.basis)
        assert warm.value == pytest.approx(cold.value, abs=1e-12)


@pytest.mark.parametrize("name", ["window", "unbounded", "no-rows"])
def test_result_names_its_optimal_basis(name):
    n, constraints = CONSTRAINT_SETS[name]
    A, b = _standard_form(n, constraints)
    for c in _objectives(n, 9):
        result = solve_lp(c, **constraints)
        if result.status != "optimal":
            assert result.basis is None
            continue
        basis = list(result.basis)
        assert len(basis) == b.size
        x = np.zeros(A.shape[1])
        if basis:
            x[basis] = np.linalg.solve(A[:, basis], b)
        assert x[:n] == pytest.approx(result.x, abs=1e-12)
        # optimal: no reduced cost is negative
        cost = np.concatenate([c, np.zeros(A.shape[1] - n)])
        duals = np.linalg.solve(A[:, basis].T, cost[basis]) if basis else np.zeros(0)
        assert np.all(cost - duals @ A >= -1e-9)


def _assert_cold(warm, cold):
    """``warm`` is ``cold``, phase 1 included, bit for bit."""
    _assert_same(warm, cold)
    assert warm.start.status == cold.start.status
    assert warm.start.basis == cold.start.basis
    if cold.start.T is None:
        assert warm.start.T is None
    else:
        assert np.array_equal(warm.start.T, cold.start.T)


def test_refused_bases_give_the_cold_solve():
    n, constraints = CONSTRAINT_SETS["window"]
    refused = [
        (0, 0, 1),  # singular: one column twice
        (5, 6, 0),  # slacks and x0: x0 = 1 leaves a negative slack
    ]
    for basis in refused:
        for c in _objectives(n, 1):
            _assert_cold(solve_lp(c, **constraints, basis=basis), solve_lp(c, **constraints))
    # nearly singular: after x0, the pivot on x1 is 1e-13, below _PIVOT_TOL
    nearly = dict(
        a_eq=np.array([[1.0, 1.0, 1.0], [1.0, 1.0 + 1e-13, 1.0]]), b_eq=np.array([1.0, 1.0 + 5e-14])
    )
    for c in _objectives(3, 2):
        _assert_cold(solve_lp(c, **nearly, basis=(0, 1)), solve_lp(c, **nearly))
    n, constraints = CONSTRAINT_SETS["infeasible"]
    for basis in [(0, 1), (0, 2), (1, 2)]:
        _assert_cold(solve_lp(np.ones(n), **constraints, basis=basis), solve_lp(np.ones(n), **constraints))


def test_basis_of_wrong_length_rejected():
    n, constraints = CONSTRAINT_SETS["window"]
    with pytest.raises(ValueError, match="one column per constraint row"):
        solve_lp(np.zeros(n), **constraints, basis=(0, 1))
    with pytest.raises(ValueError, match="one column per constraint row"):
        solve_lp(np.zeros(n), **constraints, basis=(0, 1, 2, 3))

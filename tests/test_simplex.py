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


def _reference_pivot_loop(T, z, basis, n_cols, max_iter=100_000, stop_value=None, steps=None):
    """Reference pivot loop: the ratio test on numpy arrays. Returns the
    status and the final right-hand side (None unless "optimal").

    ``steps``, if given, receives each pivot's entering column and leaving
    row."""
    stalled = 0
    for _ in range(max_iter):
        if stop_value is not None and -z[-1] <= stop_value:
            return "optimal", T[:, -1]
        costs = z[:n_cols]
        if stalled < simplex._STALL_LIMIT:
            j = int(np.argmin(costs))
            if costs[j] >= -simplex._COST_TOL:
                return "optimal", T[:, -1]
        else:
            negative = np.nonzero(costs < -simplex._COST_TOL)[0]
            if negative.size == 0:
                return "optimal", T[:, -1]
            j = int(negative[0])
        col = T[:, j]
        rows = np.nonzero(col > simplex._PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded", None
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        i = min(ties, key=lambda r: basis[r])
        if steps is not None:
            steps.append((j, int(i)))
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
    basis = list(range(m))
    # the tableau through _eliminate, on any nonzero entry
    for _ in range(5):
        i, j = int(rng.integers(m)), int(rng.integers(n))
        if T[i, j] == 0.0:
            continue
        T_rows, T_outer = T.copy(), T.copy()
        simplex._eliminate(T, i, j)
        _pivot_by_rows(T_rows, z.copy(), list(basis), i, j)
        _reference_pivot(T_outer, z.copy(), list(basis), i, j)
        assert np.array_equal(T, T_rows)
        # bytes, so that a -0.0 where the outer product gave +0.0 fails
        assert T.tobytes() == T_outer.tobytes()
    # the objective row through one step of the pivot loop at a time: each
    # step, a column with a positive entry gets the steepest reduced cost
    for _ in range(5):
        entering = np.nonzero((T[:, :n] > simplex._PIVOT_TOL).any(axis=0))[0]
        j = int(rng.choice(entering))
        z[j] = 2.0 * min(z[:n].min(), -1.0)
        i = simplex._ratio_test(T, j, basis)
        T_rows, z_rows, basis_rows = T.copy(), z.copy(), list(basis)
        T_outer, z_outer, basis_outer = T.copy(), z.copy(), list(basis)
        with pytest.raises(RuntimeError, match="iteration limit"):
            simplex._pivot_loop(T, z, basis, n_cols=n, max_iter=1)
        _pivot_by_rows(T_rows, z_rows, basis_rows, i, j)
        _reference_pivot(T_outer, z_outer, basis_outer, i, j)
        assert np.array_equal(T, T_rows)
        assert np.array_equal(z, z_rows)
        assert basis == basis_rows == basis_outer
        assert T.tobytes() == T_outer.tobytes()
        assert z.tobytes() == z_outer.tobytes()


def _run_loop(loop, T, z, basis, **kwargs):
    """Run a pivot loop on copies; the status is the exception type if it raised."""
    T, z, basis = T.copy(), z.copy(), list(basis)
    try:
        status, _ = loop(T, z, basis, **kwargs)
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
    eliminate = simplex._eliminate

    def counting_eliminate(*args):
        nonlocal pivots
        pivots += 1
        eliminate(*args)

    monkeypatch.setattr(simplex, "_eliminate", counting_eliminate)
    assert _assert_loop_matches_reference(T, z, basis, n_cols=7) == "optimal"
    assert pivots > simplex._STALL_LIMIT


def test_pivot_loop_reports_unbounded_like_reference():
    # x0 has no positive entry: once it enters, however small its improving
    # reduced cost, the program reads unbounded
    for costs in ([-1.0, -2.0], [-2.0, -1.0], [-5e-7, -1e-7]):
        T, z, basis = _canonical(
            np.array([[-1.0, 1.0], [0.0, 2.0]]), np.array([2.0, 3.0]), np.array(costs)
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
    eliminate = simplex._eliminate

    def counting_eliminate(*args):
        nonlocal pivots
        pivots += 1
        eliminate(*args)

    monkeypatch.setattr(simplex, "_eliminate", counting_eliminate)
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


def _reduced_costs(start, cost):
    """Phase 2's objective row at the start basis."""
    nvar = start.n_cols
    cb = cost[list(start.basis)]
    z = np.zeros(nvar + 1)
    z[:nvar] = cost - cb @ start.T[:, :nvar]
    z[-1] = -float(cb @ start.T[:, -1])
    return z


def _reference_phase_two(start, cost, max_iter=100_000, steps=None):
    """The copy-and-pivot phase 2: each run pivots its own copy of the
    start tableau. Returns the status, the objective row, the basis and
    the right-hand side, or the exception type as the status if it raised."""
    T, z, basis = start.T.copy(), _reduced_costs(start, cost), list(start.basis)
    try:
        status, _ = _reference_pivot_loop(
            T, z, basis, n_cols=start.n_cols, max_iter=max_iter, steps=steps
        )
    except RuntimeError as exc:
        status = type(exc)
    return status, z, basis, T[:, -1]


def _replayed_walk(start, cost, max_iter):
    """Phase 2's walk from ``start`` and its record, cut at ``max_iter``."""
    z, basis = _reduced_costs(start, cost), list(start.basis)
    try:
        status, rhs = simplex._pivot_loop(
            start.T, z, basis, start.n_cols, max_iter=max_iter, path=start._path
        )
    except RuntimeError as exc:
        status, rhs = type(exc), None
    return status, z, basis, rhs


def _assert_record_is_path(start, steps):
    """The record opens with the first steps of the latest walk, and each
    recorded pivot row and right-hand side is the tableau's after that step."""
    record = start._path
    assert len(record) <= simplex._PATH_CAP
    shared = min(len(steps), simplex._PATH_CAP)
    assert [(j, i) for j, i, _, _ in record[:shared]] == steps[:shared]
    T = start.T.copy()
    z = np.zeros(T.shape[1])
    basis = list(start.basis)
    for j, i, row, rhs in record:
        _reference_pivot(T, z, basis, i, j)
        assert row.tobytes() == T[i].tobytes()
        assert rhs.tobytes() == T[:, -1].tobytes()


def _assert_phase_two_matches_reference(start, cost, max_iter=None, steps=None):
    """Phase 2 from ``start``, replaying its record, returns what the
    copy-and-pivot phase 2 returns, byte for byte. Returns the status;
    ``steps``, if given, receives the steps of the reference walk."""
    steps = [] if steps is None else steps
    want_status, want_z, want_basis, want_rhs = _reference_phase_two(
        start, cost, max_iter or 100_000, steps
    )
    if max_iter is None:
        x, basis, status = simplex._phase_two(start, cost)
        assert status == want_status
        if status == "optimal":
            want_x = np.zeros(start.n_cols)
            want_x[want_basis] = want_rhs
            assert x.tobytes() == want_x.tobytes()
            assert basis == tuple(want_basis)
            assert float(cost @ x) == float(cost @ want_x)
    else:
        status, z, basis, rhs = _replayed_walk(start, cost, max_iter)
        assert status == want_status
        assert z.tobytes() == want_z.tobytes()
        assert basis == want_basis
        if status == "optimal":
            assert rhs.tobytes() == want_rhs.tobytes()
    _assert_record_is_path(start, steps)
    return status


def _slack_start(A, b):
    """The phase-1 result of ``A x <= b`` with ``b >= 0``: the slack basis."""
    m, n = A.shape
    T = np.hstack([A, np.eye(m), b[:, None]])
    T.flags.writeable = False
    return simplex.PhaseOne(n + m, "feasible", T, tuple(range(n, n + m)))


def _window_program(seed):
    """A sign-test program like a likelihood window's: mass on a sorted pfd
    grid, normalised, under a mean bound, a reliability bound, and a
    confidence and a perfection equality (each two-sided, relaxed by
    1e-9), all as homogeneous ``<=`` rows. A prior on three grid points
    satisfies them all. Returns the phase 1, likelihoods and gains."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 300))
    p = np.sort(10.0 ** rng.uniform(-8.0, -0.3, n))
    p[0] = 0.0
    perfect, theta = np.sort(rng.uniform(0.05, 0.95, 2))
    low, high = p[np.sort(rng.choice(np.arange(1, n), 2, replace=False))]
    n0 = 10.0 ** rng.uniform(1.0, 4.0)
    mean = ((theta - perfect) * low + (1.0 - theta) * high) * rng.uniform(1.0, 4.0)
    survive = perfect + (theta - perfect) * (1.0 - low) ** n0 + (1.0 - theta) * (1.0 - high) ** n0
    confident = (p <= low).astype(float)
    a_ub = np.vstack(
        [
            p - mean,
            survive * rng.uniform(0.7, 1.0) - (1.0 - p) ** n0,
            theta - confident - 1e-9,
            confident - theta - 1e-9,
            perfect - (p == 0.0) - 1e-9,
            (p == 0.0) - perfect - 1e-9,
        ]
    )
    start = solve_lp(
        np.zeros(n), a_ub=a_ub, b_ub=np.zeros(6), a_eq=np.ones((1, n)), b_eq=np.ones(1)
    ).start
    assert start.status == "feasible"
    return start, np.exp(-(10.0 ** rng.uniform(1.0, 6.0)) * p), p


class _Rebuilds:
    """Records how many recorded steps each rebuild re-applies."""

    def __init__(self, monkeypatch):
        self.parts = []
        rebuild = simplex._rebuild

        def recording_rebuild(T, path, steps):
            self.parts.append(steps)
            return rebuild(T, path, steps)

        monkeypatch.setattr(simplex, "_rebuild", recording_rebuild)


def _sign_test_cost(start, lik, gains, level, maximize):
    cost = lik * (gains - level) * (-1.0 if maximize else 1.0)
    return np.concatenate([cost, np.zeros(start.n_cols - lik.size)])


def test_replayed_sign_tests_match_reference(monkeypatch):
    # each window's sequence of sign tests from one shared phase 1: a probe
    # either side of a proposal, a bisection on the level, the last costs
    # again, in both directions
    rebuilds = _Rebuilds(monkeypatch)
    whole, early = 0, 0  # walks that replayed only: all of the record, a prefix
    for seed in range(12):
        start, lik, gains = _window_program(seed)
        for maximize in (True, False):
            sign = 1.0 if maximize else -1.0
            proposal = float(gains @ lik / lik.sum())
            levels = [proposal - 2e-9, proposal + 2e-9]
            lo, hi = (0.0, 1.0) if maximize else (-1.0, 0.0)
            for _ in range(40):
                levels.append(sign * (lo + hi) / 2.0)
                cost = _sign_test_cost(start, lik, gains, levels[-1], maximize)
                recorded, parts, steps = len(start._path), len(rebuilds.parts), []
                assert _assert_phase_two_matches_reference(start, cost, steps=steps) == "optimal"
                if len(rebuilds.parts) == parts:
                    whole += len(steps) == recorded
                    early += len(steps) < recorded
                x = simplex._phase_two(start, cost)[0]
                if sign * -float(cost @ x) > 1e-12:
                    lo = (lo + hi) / 2.0
                else:
                    hi = (lo + hi) / 2.0
            for level in levels[:2] + levels[-1:] * 2:
                cost = _sign_test_cost(start, lik, gains, level, maximize)
                assert _assert_phase_two_matches_reference(start, cost) == "optimal"
    # walks part from their predecessor's path at the first, second and
    # third step, and some replay all of it or a prefix of it
    assert {1, 2, 3} <= set(rebuilds.parts), sorted(set(rebuilds.parts))
    assert whole and early


def test_every_start_records_its_walk():
    # a start built within solve_lp, from phase 1 or from a basis, records
    # the walk of the phase 2 run with it, and a warm solve from that start
    # replays it to the cold solve's result
    n, constraints = CONSTRAINT_SETS["window"]
    for cost in _objectives(n, 4):
        cold = solve_lp(cost, **constraints)
        crashed = solve_lp(cost, **constraints, basis=cold.start.basis)
        for start in (cold.start, crashed.start):
            steps = []
            phase_two_cost = np.concatenate([cost, np.zeros(start.n_cols - n)])
            _reference_phase_two(start, phase_two_cost, steps=steps)
            _assert_record_is_path(start, steps)
        warm = solve_lp(cost, **constraints, start=cold.start)
        assert warm.start is cold.start
        _assert_same(warm, cold)
    assert cold.start._path  # the last cost takes a pivot from the start


def _beale_start():
    """Beale's example, which cycles under Dantzig's rule: phase 2 runs
    _STALL_LIMIT degenerate pivots, then Bland's rule, past _PATH_CAP steps."""
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    return _slack_start(A, np.array([0.0, 0.0, 1.0])), np.array([-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0])


def test_replay_through_degenerate_stretch_past_the_cap(monkeypatch):
    start, cost = _beale_start()
    rebuilds = _Rebuilds(monkeypatch)
    assert _assert_phase_two_matches_reference(start, cost) == "optimal"
    assert len(start._path) == simplex._PATH_CAP
    # the same cost, and the cost doubled (every reduced cost doubles
    # exactly): the whole record replays, then the walk goes on beyond it
    assert _assert_phase_two_matches_reference(start, cost) == "optimal"
    assert _assert_phase_two_matches_reference(start, 2.0 * cost) == "optimal"
    assert rebuilds.parts == [0, simplex._PATH_CAP, simplex._PATH_CAP]
    # a small cost on a slack keeps the degenerate stretch and the switch
    # to Bland's rule, and parts from the record only after it
    tilted = 2.0 * cost
    tilted[5] = -0.013
    assert _assert_phase_two_matches_reference(start, tilted) == "optimal"
    assert rebuilds.parts[-1] > simplex._STALL_LIMIT


def test_replay_runs_out_of_iterations_like_reference():
    start, cost = _beale_start()
    _assert_phase_two_matches_reference(start, cost)
    for max_iter in (1, 5, simplex._STALL_LIMIT + 2, simplex._PATH_CAP):
        assert _assert_phase_two_matches_reference(start, 2.0 * cost, max_iter) is RuntimeError
    # the record a cut walk leaves still replays bit for bit
    assert _assert_phase_two_matches_reference(start, cost) == "optimal"
    assert _assert_phase_two_matches_reference(start, 2.0 * cost, 100_000) == "optimal"


def _ray_start():
    """x0 has no positive entry; x1 enters on row 0, x2 and x3 on row 1."""
    A = np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 2.0, 1.0], [-2.0, 1.0, 1.0, 0.0]])
    return _slack_start(A, np.array([2.0, 3.0, 4.0]))


def _ray_cost(*costs):
    return np.concatenate([costs, np.zeros(3)])


def test_replay_reports_unbounded_column_like_reference(monkeypatch):
    start = _ray_start()
    rebuilds = _Rebuilds(monkeypatch)
    # x2 enters on row 1, then x1 on row 0, which leaves x0 with cost c0 + c1
    path = _ray_cost(1.0, -0.5, -1.0, 0.0)
    assert _assert_phase_two_matches_reference(start, path) == "optimal"
    assert [(j, i) for j, i, _, _ in start._path] == [(2, 1), (1, 0)]
    # x0 improves after the first replayed step: it enters and reads
    # unbounded, and the record keeps the step taken
    assert _assert_phase_two_matches_reference(start, _ray_cost(-1.0, -0.5, -2.0, 0.0)) == "unbounded"
    assert [(j, i) for j, i, _, _ in start._path] == [(2, 1)]
    assert _assert_phase_two_matches_reference(start, _ray_cost(0.6, -0.5, -1.0, 0.0)) == "optimal"
    # ... and after the whole replayed record
    assert _assert_phase_two_matches_reference(start, _ray_cost(0.4, -0.5, -1.0, 0.0)) == "unbounded"
    assert [(j, i) for j, i, _, _ in start._path] == [(2, 1), (1, 0)]
    assert _assert_phase_two_matches_reference(start, path) == "optimal"
    assert rebuilds.parts == [0, 1, 1, 2]
    # x0 steepest from the start: no step is kept
    assert _assert_phase_two_matches_reference(start, _ray_cost(-1.0, -0.5, 0.0, 0.0)) == "unbounded"
    assert start._path == []
    assert _assert_phase_two_matches_reference(start, path) == "optimal"


@pytest.mark.parametrize("seed", range(30))
def test_replay_on_random_programs_matches_reference(seed):
    # canonical programs with ties and degenerate vertices, and cost
    # sequences that share a prefix of their paths
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(2, 60))
    A = rng.integers(-2, 4, size=(m, n)).astype(float) if seed % 2 else rng.normal(size=(m, n))
    A[0] = np.abs(A[0]) + 0.1  # bounds the program
    start = _slack_start(A, np.concatenate([[1.0], rng.integers(0, 3, size=m - 1)]).astype(float))
    base = np.concatenate([rng.normal(size=n), np.zeros(m)])
    for _ in range(12):
        cost = base.copy()
        cost[rng.integers(n + m)] += rng.normal() * 10.0 ** rng.integers(-6, 1)
        for max_iter in (None, int(rng.integers(1, 4))):
            _assert_phase_two_matches_reference(start, cost, max_iter)

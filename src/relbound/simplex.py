"""Dense two-phase simplex for small linear programs.

Sized for the problems this package generates: a handful of rows and up
to a few thousand columns. The entering variable is the one with the
steepest reduced cost (Dantzig's rule); after ``_STALL_LIMIT`` degenerate
pivots in a row the choice switches to the smallest improving index
(Bland's rule), which cannot cycle. Ties in the ratio test go to the row
whose basic variable has the smallest index. With so few rows, the ratio
test runs on plain Python floats, which divide and compare exactly as
float64 arrays do; a pivot is one broadcast rank-1 update of the tableau.

Phase 1 depends only on the constraints, so one phase 1 serves every
objective over the same constraints: ``solve_lp`` returns it as
``LpResult.start`` and takes it back as ``start=``, going straight to
phase 2. A known basis can stand in for phase 1 altogether:
``solve_lp(basis=...)`` pivots the named columns in and starts phase 2
there if that basis is feasible, and runs the artificial phase 1 if it is
not. ``LpResult.basis`` names the optimal basis, in that form.

Every phase 2 from one ``PhaseOne`` starts from the same tableau, and the
tableau after a given sequence of pivots is the same array whatever the
objective. So every ``PhaseOne`` records the path of the latest phase 2
run from it, up to ``_PATH_CAP`` steps: each step's entering column,
leaving row, and the pivot row and right-hand side after the pivot. The
next phase 2 prices its own reduced costs as usual; while it enters the
recorded columns it takes the recorded steps, updating only its
objective row, and builds no tableau. At the first step where its choice
differs, it copies the start, re-applies the recorded pivots and goes on
from there, recording its own path in place of the rest. A start's first
phase 2 has nothing to replay, so its first pivot copies the start.
Every result is the one a fresh copy-and-pivot phase 2 gives, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_COST_TOL = 1e-9
_PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-7


@dataclass(frozen=True)
class PhaseOne:
    """A feasible basis for one constraint set, whatever the objective.

    ``T`` is the canonical tableau over the standard-form columns (the
    variables, then one slack per ``<=`` row) with the right-hand side
    last, and ``basis`` names each row's basic column. ``T`` is None
    unless ``status`` is "feasible". Phase 2 never writes ``T``, so one
    ``PhaseOne`` serves any number of objectives.

    ``_path`` holds the first ``_PATH_CAP`` steps of the latest phase 2
    run from here, which the next one replays as far as its own choices
    agree (see the module docstring). It is a cache: it changes no
    result, and takes no part in equality or repr. Phase 2 rewrites it,
    so threads must not share one ``PhaseOne``.
    """

    n_cols: int
    status: str  # "feasible" | "infeasible"
    T: np.ndarray | None = None
    basis: tuple[int, ...] = ()
    _path: list = field(default_factory=list, init=False, repr=False, compare=False)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None
    #: phase 1 of this program's constraints, for ``solve_lp(start=...)``
    start: PhaseOne | None = None
    #: each row's basic column at the optimum, for ``solve_lp(basis=...)``
    basis: tuple[int, ...] | None = None


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    *,
    maximize: bool = False,
    start: PhaseOne | None = None,
    basis: tuple[int, ...] | None = None,
) -> LpResult:
    """Optimise ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``, ``x >= 0``.

    ``start`` is the ``start`` of an earlier result over these same
    constraints. Phase 1 is then skipped rather than run again; it is
    deterministic in the constraints, so the result is the same.

    ``basis`` names one standard-form column (the variables, then one
    slack per ``a_ub`` row) per constraint row, as ``LpResult.basis``
    does. If pivoting those columns in gives a feasible basis, phase 2
    starts there; otherwise the result is that of a solve without it.
    With ``start`` given, ``basis`` is not read.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if start is None:
        A, b = _standard_form(n, a_ub, b_ub, a_eq, b_eq)
        # from here on only the tableau holds the constraints: drop the other
        # references before phase 2 (a matrix passed inline has none left)
        a_ub = a_eq = None
        if basis is not None:
            if len(basis) != b.size:
                raise ValueError("basis must name one column per constraint row")
            start = _crash(A, b, basis)
        if start is None:
            start = _phase_one(A, b)
        del A, b
    elif start.n_cols != n + (0 if b_ub is None else np.size(b_ub)):
        raise ValueError("start belongs to constraints of another shape")
    cost = np.concatenate([c * (-1.0 if maximize else 1.0), np.zeros(start.n_cols - n)])
    x_full, optimal_basis, status = _phase_two(start, cost)
    if status != "optimal":
        return LpResult(status, None, None, start)
    x = x_full[:n]
    return LpResult("optimal", x, float(c @ x), start, optimal_basis)


def _standard_form(n, a_ub, b_ub, a_eq, b_eq):
    """``[a_eq 0; a_ub I][x; s] = [b_eq; b_ub]``, rows flipped so that b >= 0."""
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    n_ub = b_ub.size
    m = a_eq.shape[0] + n_ub
    A = np.zeros((m, n + n_ub))
    A[: a_eq.shape[0], :n] = a_eq
    A[a_eq.shape[0] :, :n] = a_ub
    A[a_eq.shape[0] :, n:] = np.eye(n_ub)
    b = np.concatenate([b_eq, b_ub])
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    return A, b


def _phase_one(A: np.ndarray, b: np.ndarray) -> PhaseOne:
    """Artificial basis, minimise the sum of artificials."""
    m, nvar = A.shape
    T = np.zeros((m, nvar + m + 1))
    T[:, :nvar] = A
    T[:, nvar : nvar + m] = np.eye(m)
    T[:, -1] = b
    basis = list(range(nvar, nvar + m))
    z = np.zeros(nvar + m + 1)
    z[:nvar] = -T[:, :nvar].sum(axis=0)
    z[-1] = -T[:, -1].sum()
    # phase 1 only needs a feasible point, not dual optimality: stop as soon
    # as the artificial objective reaches zero (degenerate pivoting beyond
    # that point just churns the tableau). The artificial objective alone
    # decides feasibility, also when roundoff stops the walk at an improving
    # column with no positive entry
    _pivot_loop(T, z, basis, n_cols=nvar + m, stop_value=_FEAS_TOL / 2)
    if -z[-1] > _FEAS_TOL:
        return PhaseOne(nvar, "infeasible")

    # drive leftover artificials out of the basis (z is read no more); drop redundant rows
    in_basis = np.zeros(nvar + m, dtype=bool)
    in_basis[basis] = True
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] < nvar:
            continue
        pivot_cols = np.nonzero((np.abs(T[i, :nvar]) > _PIVOT_TOL) & ~in_basis[:nvar])[0]
        if pivot_cols.size:
            j = int(pivot_cols[0])
            _eliminate(T, i, j)
            basis[i] = j
            in_basis[j] = True
        else:
            keep[i] = False  # redundant: the row is zero over the real variables
    T = np.hstack([T[keep, :nvar], T[keep, -1:]])
    T.flags.writeable = False
    return PhaseOne(nvar, "feasible", T, tuple(var for var, kept in zip(basis, keep) if kept))


def _crash(A: np.ndarray, b: np.ndarray, basis) -> PhaseOne | None:
    """The canonical tableau of the named basis, or None unless it is feasible.

    Each column in turn is pivoted in on the not yet used row where its
    entry is largest; the basis is refused if a pivot is not above
    ``_PIVOT_TOL`` or a basic value comes out negative.
    """
    m, nvar = A.shape
    T = np.empty((m, nvar + 1))
    T[:, :nvar] = A
    T[:, -1] = b
    rows = [-1] * m
    free = np.ones(m, dtype=bool)
    for j in basis:
        entries = np.where(free, np.abs(T[:, j]), 0.0)
        i = int(np.argmax(entries))
        if not entries[i] > _PIVOT_TOL:
            return None
        _eliminate(T, i, j)
        rows[i] = j
        free[i] = False
    if not np.all(T[:, -1] >= 0.0):
        return None
    T.flags.writeable = False
    return PhaseOne(nvar, "feasible", T, tuple(rows))


def _phase_two(start: PhaseOne, cost: np.ndarray):
    """The real objective over the real columns, from phase 1's basis,
    replaying and recording ``start``'s path. Returns the solution, the
    optimal basis and the status."""
    if start.status != "feasible":
        return None, None, start.status
    nvar = start.n_cols
    basis = list(start.basis)
    z = np.zeros(nvar + 1)
    cb = cost[basis]
    z[:nvar] = cost - cb @ start.T[:, :nvar]
    z[-1] = -float(cb @ start.T[:, -1])
    status, rhs = _pivot_loop(start.T, z, basis, nvar, path=start._path)
    if status != "optimal":
        return None, None, status
    x = np.zeros(nvar)
    x[basis] = rhs
    return x, tuple(basis), "optimal"


#: consecutive degenerate pivots before switching from Dantzig to Bland
_STALL_LIMIT = 12
#: phase-2 steps a ``PhaseOne`` records. The deepest sign-test path on the
#: benchmark's solve-mix and gsn-case pools takes 11 pivots; the cap keeps
#: a program that spins from growing the record without bound, each step
#: holding a whole tableau row
_PATH_CAP = 16


def _pivot_loop(T, z, basis, n_cols, max_iter=100_000, stop_value=None, path=None):
    """Pivot until no reduced cost improves; returns the status and the
    final right-hand side (None unless "optimal").

    Without ``path`` the pivots update ``T`` in place. With it, ``T`` is a
    start's read-only tableau and ``path`` that start's record: while
    this walk enters the recorded columns it takes the recorded steps,
    which leave the tableau as they left it, without building the
    tableau. At its first other step it copies ``T``, re-applies the
    steps taken so far, and records its own in place of the rest.
    """
    stalled = 0
    replayed = None if path is None else 0  # None once T is this walk's own
    rhs = T[:, -1]
    for _ in range(max_iter):
        if stop_value is not None and -z[-1] <= stop_value:
            break
        costs = z[:n_cols]
        if stalled < _STALL_LIMIT:
            j = int(costs.argmin())  # Dantzig: steepest reduced cost
            if costs[j] >= -_COST_TOL:
                break
        else:
            # degenerate stretch: Bland's smallest-index rule cannot cycle
            negative = np.nonzero(costs < -_COST_TOL)[0]
            if negative.size == 0:
                break
            j = int(negative[0])
        if replayed is not None and replayed < len(path) and path[replayed][0] == j:
            _, i, row, rhs = path[replayed]
            replayed += 1
        else:
            if replayed is not None:
                T = _rebuild(T, path, replayed)
                replayed = None
            i = _ratio_test(T, j, basis)
            if i < 0:  # an improving column with no positive entry
                return "unbounded", None
            _eliminate(T, i, j)
            row, rhs = T[i], T[:, -1]
            if path is not None and len(path) < _PATH_CAP:
                path.append((j, i, row.copy(), rhs.copy()))
        before = z[-1]
        z -= z[j] * row
        basis[i] = j
        stalled = stalled + 1 if z[-1] <= before + 1e-15 else 0
    else:
        raise RuntimeError("simplex iteration limit reached")
    return "optimal", rhs


def _ratio_test(T, j, basis) -> int:
    """The leaving row for entering column ``j``, or -1 if the column has
    no positive entry. Ties go to the row whose basic variable has the
    smallest index (Bland on the leaving variable)."""
    # the ratio test runs over a handful of rows: Python floats divide
    # and compare exactly as float64 arrays do, without the array calls
    col = T[:, j].tolist()
    rhs = T[:, -1].tolist()
    rows = [r for r, entry in enumerate(col) if entry > _PIVOT_TOL]
    if not rows:
        return -1
    ratios = [rhs[r] / col[r] for r in rows]
    cut = min(ratios) + 1e-12
    i = -1
    for r, ratio in zip(rows, ratios):
        if ratio <= cut:
            if i < 0 or basis[r] < basis[i]:
                i = r
        elif not ratio > cut:
            raise ValueError("NaN in the simplex ratio test")
    return i


def _rebuild(start_T, path, steps):
    """A copy of ``start_T`` after the first ``steps`` steps of ``path``;
    the record is cut there, for the caller to go on recording."""
    T = start_T.copy()
    for j, i, _, _ in path[:steps]:
        _eliminate(T, i, j)
    del path[steps:]
    return T


def _eliminate(T, i, j):
    """Pivot ``T`` on row ``i``, column ``j``; basis and objective are the caller's."""
    T[i] /= T[i, j]
    # one rank-1 update for every other row: row r loses T[r, j] * T[i],
    # the same product and difference a row-by-row update computes; a row
    # with a zero in column j subtracts zero and keeps its values
    col = T[:, j].copy()
    col[i] = 0.0
    T -= col[:, None] * T[i]

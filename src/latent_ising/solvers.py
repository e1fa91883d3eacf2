"""In-repo feasibility solvers: a bounded-log-weight interval LP and GF(2).

Both solvers are deliberately small and dependency-free, and both read a
program as one boolean matrix with a row per constraint and a column per
variable; for the known-topology fit that is the leaf-pair x edge path
incidence.  The interval LP has one variable per tree edge and up to two
rows per leaf pair, and a one-phase simplex with Bland's rule solves it:
shifting the maximized slack by a constant makes the origin a feasible
start, so no artificial columns are needed.  A program computes its row
layout (each row's constraint, which rows are lower bounds, the right-hand
sides) once, when it is made, and the shift check, the tableau and the
infeasibility witness all read it.  The tableau is condensed: a basic
variable's column is a unit vector, so only the non-basic variables' columns
and the right-hand side are stored, one column-major m x (n_vars + 2) array
for m rows, instead of one more column per slack.  A
path row touches few edges, so a pivot row is mostly zero (about 4%
non-zero at 16 leaves); each pivot updates only the columns where its row is
non-zero, and reads the reduced costs from the maximized variable's row
instead of multiplying out a cost vector.  These shortcuts skip only
arithmetic that leaves a finite entry unchanged, so the pivots and the
result equal the full tableau's dense update bit for bit.  Determinism
matters more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

from .errors import BadParameter, NoConsistentModel

_TOL = 1e-9
_SLACK_CAP = 50.0  # bound on the centering slack; e^-50 is zero for our purposes
_MAX_PIVOTS = 100_000


def _check_rows(name: str, matrix, **vectors) -> None:
    """Reject a ``name`` matrix that is not 2-D boolean, or a vector that is
    not an array with one entry per matrix row."""
    if not (isinstance(matrix, np.ndarray) and matrix.ndim == 2 and matrix.dtype == bool):
        raise BadParameter(f"{name} must be a 2-D boolean matrix")
    for field, vector in vectors.items():
        if not (isinstance(vector, np.ndarray) and vector.shape == matrix.shape[:1]):
            raise BadParameter(f"{field} must be an array with one entry per row of {name}")


@dataclass(frozen=True, eq=False)
class IntervalPathLP:
    """Feasibility program over variables w <= 0: row k of the boolean
    ``constraints`` (k, n_vars) marks the variables whose sum lies in
    [lower[k], upper[k]]; lower[k] = -inf means the row has no lower bound.
    ``_layout`` is the program's row layout, :func:`_row_layout`, computed
    once when the program is made."""

    constraints: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    _layout: Tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        _check_rows("constraints", self.constraints, lower=self.lower, upper=self.upper)
        lower, upper = self.lower, self.upper
        if lower.dtype != np.float64 or upper.dtype != np.float64:
            raise BadParameter("lower and upper must be float64 arrays")
        not_finite = ~np.isfinite(upper) | np.isnan(lower) | (lower == np.inf)
        for bad, message in (
            (not_finite, "a bound that is not finite"),
            (upper < lower - 1e-15, "upper < lower"),
        ):
            if bad.any():
                raise BadParameter(f"constraint {bad.argmax()} has {message}")
        # lp_feasible shifts every right-hand side by t0, the smallest of them
        # (or 0); the shifted tableau must stay finite
        object.__setattr__(self, "_layout", _row_layout(self))
        owner, lower_row, rhs = self._layout
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(rhs - min(0.0, rhs.min(initial=0.0)))
        if bad.any():
            r = int(bad.argmax())
            side = "lower" if lower_row[r] else "upper"
            raise BadParameter(
                f"the {side} bound of constraint {owner[r]} is too far from the smallest "
                "bound for the solver's shift to stay finite"
            )


def _row_layout(lp: IntervalPathLP):
    """``(owner, lower_row, rhs)``: each constraint's upper bound row, then its lower if any."""
    owner = np.repeat(np.arange(len(lp.upper)), 1 + np.isfinite(lp.lower))
    lower_row = np.zeros(owner.size, dtype=bool)
    lower_row[1:] = owner[1:] == owner[:-1]
    return owner, lower_row, np.where(lower_row, -lp.lower[owner], lp.upper[owner])


@dataclass(frozen=True)
class Infeasible:
    """Returned when no assignment satisfies the program."""

    constraint: int
    side: str
    message: str


def lp_feasible(lp: IntervalPathLP) -> Union[np.ndarray, Infeasible]:
    """Find w <= 0 with every path sum inside its interval, or a witness.

    One simplex phase maximizes the smallest interval slack t over x = -w
    and tau = t - t0, where t0 (at most 0, every upper bound and minus every
    lower bound) makes x = 0, tau = 0 a feasible start.  The program is
    feasible exactly when the optimal t is non-negative; the returned point
    then keeps the largest distance from the interval endpoints.  Otherwise
    the witness is the bound with the largest dual weight, a member of a
    Farkas certificate of infeasibility.  The tableau and the witness read
    the program's one row layout, :func:`_row_layout`.
    """
    nv = lp.constraints.shape[1]
    # rows: the bounds in _row_layout's order, then the cap on tau; column
    # slots: one per non-basic variable (x and tau at the start), then the
    # right-hand side.  Variables are x, tau, then one slack per row.
    owner, lower_row, rhs = lp._layout
    m = owner.size + 1
    rhs = np.append(rhs, _SLACK_CAP)
    t0 = min(0.0, rhs.min())

    T = np.zeros((m, nv + 2), order="F")
    # -sum(x) + tau <= upper - t0 and sum(x) + tau <= -lower - t0
    T[:-1, :nv] = np.where(lp.constraints[owner], np.where(lower_row, 1.0, -1.0)[:, None], 0.0)
    T[:, nv] = 1.0
    T[:, -1] = rhs - t0
    nonbasic = np.arange(nv + 1)
    basis = np.arange(nv + 1, nv + 1 + m)
    tau_row = _simplex_iterate(T, basis, nonbasic, nv)

    x = np.zeros(nv + 1 + m)
    x[basis] = T[:, -1]
    if t0 + x[nv] < -_TOL:
        duals = np.zeros(nv + 1 + m)
        duals[nonbasic] = T[tau_row, :-1]
        bound = int(np.argmax(duals[nv + 1 : nv + m]))
        k = int(owner[bound])
        side = "lower" if lower_row[bound] else "upper"
        lower = float(lp.lower[k]) if np.isfinite(lp.lower[k]) else None
        return Infeasible(
            constraint=k,
            side=side,
            message=f"no assignment satisfies the {side} bound of constraint {k} "
            f"(interval [{lower}, {float(lp.upper[k])}])",
        )
    return -x[:nv]


def _simplex_iterate(
    T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, objective: int
) -> int:
    """Maximize the variable ``objective`` over the condensed tableau T, in
    place, from a feasible basis that leaves it non-basic, and return the row
    where it is basic at the optimum.

    T holds the column of each non-basic variable, ``nonbasic[j]`` in slot j,
    then the right-hand side; ``basis[i]`` is the variable basic in row i,
    whose unit column is not stored.  T is column-major so a pivot's columns
    are contiguous.

    Bland's rule: the improving variable with the smallest id enters; among
    rows whose ratio is within _TOL of the smallest, the one with the
    smallest basic variable leaves.  With a single unit cost the reduced
    costs are minus the objective's row when it is basic, so the objective
    enters first and is basic whenever the loop stops.  A pivot swaps the
    entering and leaving variables' slots: the slot takes the leaving unit
    column, which the update turns into its new column.  It updates only the
    columns where the pivot row is non-zero: on every other column the dense
    rank-1 update subtracts col * 0 from finite entries, which changes none
    of them.
    """
    objective_row = -1
    for _ in range(_MAX_PIVOTS):
        if objective_row < 0:
            slot = int((nonbasic == objective).argmax())
        else:
            improving = (T[objective_row, :-1] < -_TOL).nonzero()[0]
            if improving.size == 0:
                return objective_row
            slot = int(improving[nonbasic[improving].argmin()])
        col = T[:, slot].copy()  # the pivot below overwrites this column
        candidates = (col > _TOL).nonzero()[0]
        if candidates.size == 0:  # pragma: no cover - the slack cap bounds t
            raise NoConsistentModel("simplex found an unbounded ray")
        ratios = T[candidates, -1] / col[candidates]
        ties = candidates[ratios <= ratios.min() + _TOL]
        row = int(ties[basis[ties].argmin()])
        pivot_row = T[row] / col[row]
        pivot_row[slot] = 1.0 / col[row]  # the leaving variable's unit column
        T[:, slot] = 0.0
        nz = pivot_row.nonzero()[0]
        # column by column: a fancy-indexed T[:, nz] update copies the columns
        # out and scatters them back, several times slower on large tableaux
        for j, factor in zip(nz.tolist(), pivot_row[nz].tolist()):
            column = T[:, j]
            column -= col * factor
        T[row] = pivot_row
        basis[row], nonbasic[slot] = nonbasic[slot], basis[row]
        if nonbasic[slot] == objective:
            objective_row = -1
        elif basis[row] == objective:
            objective_row = row
    raise NoConsistentModel(f"simplex did not finish within {_MAX_PIVOTS} pivots")


# ---------------------------------------------------------------------------
# GF(2)


@dataclass(frozen=True, eq=False)
class Gf2System:
    """Row k of ``equations`` (k, n_vars) marks the variables whose XOR
    equals the bit rhs[k]."""

    equations: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        _check_rows("equations", self.equations, rhs=self.rhs)
        bad = (self.rhs != 0) & (self.rhs != 1)
        if bad.any():
            k = int(bad.argmax())
            raise BadParameter(f"equation {k} has non-bit rhs {self.rhs[k]}")


@dataclass(frozen=True)
class Inconsistent:
    """Returned when the system has no solution."""

    equation: int
    message: str


def gf2_solve(system: Gf2System) -> Union[np.ndarray, Inconsistent]:
    """Gaussian elimination over GF(2); free variables are 0.

    Each column's pivot is the first row not yet used as a pivot that has
    the column's bit, and it is XORed into every other row with that bit.
    """
    n_vars = system.equations.shape[1]
    # [equations | rhs], so one XOR eliminates a row and its right-hand side
    rows = np.hstack([system.equations, system.rhs.astype(bool)[:, None]])
    free = np.ones(len(rows), dtype=bool)
    pivot_cols, pivot_rows = [], []
    for col in range(n_vars):
        hit = rows[:, col].copy()
        candidates = (hit & free).nonzero()[0]
        if candidates.size == 0:
            continue
        pivot = int(candidates[0])
        pivot_cols.append(col)
        pivot_rows.append(pivot)
        free[pivot] = hit[pivot] = False
        rows[hit] ^= rows[pivot]
    contradictions = rows[:, -1] & ~rows[:, :-1].any(axis=1)
    if contradictions.any():
        idx = int(contradictions.argmax())
        return Inconsistent(equation=idx, message=f"equation {idx} reduces to 0 = 1")
    x = np.zeros(n_vars, dtype=np.int64)
    x[pivot_cols] = rows[pivot_rows, -1]
    return x

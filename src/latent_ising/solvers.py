"""In-repo feasibility solvers: a bounded-log-weight interval LP and GF(2).

Both solvers are deliberately small and dependency-free.  The interval LP
has one variable per tree edge and up to two rows per leaf pair, and a
one-phase simplex with Bland's rule solves it: shifting the maximized slack
by a constant makes the origin a feasible start, so no artificial columns
are needed.  A path row touches few edges, so a pivot row is mostly zero
(about 4% non-zero at 16 leaves); each pivot updates only the columns where
its row is non-zero, in a column-major tableau, and reads the reduced costs
from the maximized variable's row instead of multiplying out a cost vector.
Both shortcuts skip only arithmetic that leaves a finite entry unchanged, so
the pivots and the result equal the dense update's bit for bit.
Determinism matters more than speed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import BadParameter, NoConsistentModel

_TOL = 1e-9
_SLACK_CAP = 50.0  # bound on the centering slack; e^-50 is zero for our purposes
_MAX_PIVOTS = 100_000


@dataclass(frozen=True)
class PathConstraint:
    """lower <= sum of the named variables <= upper; lower None means -inf."""

    variables: Tuple[int, ...]
    lower: Optional[float]
    upper: float


@dataclass(frozen=True)
class IntervalPathLP:
    """Feasibility program over variables w_e <= 0 with path-sum intervals."""

    n_vars: int
    constraints: Tuple[PathConstraint, ...]

    def __post_init__(self):
        for k, con in enumerate(self.constraints):
            for v in con.variables:
                if not 0 <= v < self.n_vars:
                    raise BadParameter(f"constraint {k} references unknown variable {v}")
            if not math.isfinite(con.upper) or not (
                con.lower is None or math.isfinite(con.lower)
            ):
                raise BadParameter(f"constraint {k} has a bound that is not finite")
            if con.lower is not None and con.upper < con.lower - 1e-15:
                raise BadParameter(f"constraint {k} has upper < lower")
        # lp_feasible shifts every right-hand side by t0, the smallest of them
        # (or 0); the shifted tableau must stay finite
        sides = [(k, "upper", float(con.upper)) for k, con in enumerate(self.constraints)]
        sides += [(k, "lower", -float(con.lower)) for k, con in enumerate(self.constraints)
                  if con.lower is not None]
        t0 = min(0.0, _SLACK_CAP, *(rhs for _, _, rhs in sides))
        for k, side, rhs in sides:
            if not math.isfinite(rhs - t0):
                raise BadParameter(
                    f"the {side} bound of constraint {k} is too far from the smallest "
                    "bound for the solver's shift to stay finite"
                )


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
    Farkas certificate of infeasibility.
    """
    nv = lp.n_vars
    cons = lp.constraints
    has_lower = np.fromiter((con.lower is not None for con in cons), bool, len(cons))
    # rows: each constraint's upper bound, then its lower bound if any, then
    # the cap on tau; columns: x, tau, one slack per row, right-hand side
    upper_row = np.arange(len(cons)) + np.cumsum(has_lower) - has_lower
    lower_row = upper_row[has_lower] + 1
    m = len(cons) + lower_row.size + 1
    rhs = np.empty(m)
    rhs[upper_row] = [con.upper for con in cons]
    rhs[lower_row] = [-con.lower for con in cons if con.lower is not None]
    rhs[-1] = _SLACK_CAP
    t0 = min(0.0, rhs.min())

    sizes = [len(con.variables) for con in cons]
    path_row = np.repeat(upper_row, sizes)
    path_var = np.fromiter(
        itertools.chain.from_iterable(con.variables for con in cons), np.intp, sum(sizes)
    )
    T = np.zeros((m, nv + m + 2), order="F")
    T[path_row, path_var] = -1.0  # -sum(x) + tau <= upper - t0
    on_lower = np.repeat(has_lower, sizes)
    T[path_row[on_lower] + 1, path_var[on_lower]] = 1.0  # sum(x) + tau <= -lower - t0
    T[:, nv] = 1.0
    T[np.arange(m), np.arange(nv + 1, nv + m + 1)] = 1.0
    T[:, -1] = rhs - t0
    basis = np.arange(nv + 1, nv + 1 + m)
    tau_row = _simplex_iterate(T, basis, nv)

    x = np.zeros(nv + 1 + m)
    x[basis] = T[:, -1]
    if t0 + x[nv] < -_TOL:
        bound = int(np.argmax(T[tau_row, nv + 1 : nv + m]))  # dual weights
        k = int(np.repeat(np.arange(len(cons)), 1 + has_lower)[bound])
        side = "upper" if upper_row[k] == bound else "lower"
        con = cons[k]
        return Infeasible(
            constraint=k,
            side=side,
            message=f"no assignment satisfies the {side} bound of constraint {k} "
            f"(interval [{con.lower}, {con.upper}])",
        )
    return -x[:nv]


def _simplex_iterate(T: np.ndarray, basis: np.ndarray, objective: int) -> int:
    """Maximize the variable ``objective`` over the tableau T = [A | b] from a
    feasible basis that leaves it non-basic, in place, and return the row
    where it is basic at the optimum; T is column-major so a pivot's columns
    are contiguous.

    Bland's rule: the first improving column enters; among rows whose ratio
    is within _TOL of the smallest, the one with the smallest basic column
    leaves.  With a single unit cost the reduced costs are e_objective minus
    the objective's row when it is basic, and e_objective otherwise, so the
    objective enters first and is basic whenever the loop stops.  A pivot
    updates only the columns where its row is non-zero: on every other column
    the dense rank-1 update subtracts col * 0 from finite entries, which
    changes none of them.
    """
    objective_row = -1
    for _ in range(_MAX_PIVOTS):
        entering = objective
        if objective_row >= 0:
            reduced = -T[objective_row, :-1]
            reduced[objective] += 1.0
            entering = int((reduced > _TOL).argmax())
            if not reduced[entering] > _TOL:
                return objective_row
        col = T[:, entering].copy()  # the pivot below overwrites this column
        candidates = (col > _TOL).nonzero()[0]
        if candidates.size == 0:  # pragma: no cover - the slack cap bounds t
            raise NoConsistentModel("simplex found an unbounded ray")
        ratios = T[candidates, -1] / col[candidates]
        ties = candidates[ratios <= ratios.min() + _TOL]
        row = int(ties[basis[ties].argmin()])
        pivot_row = T[row] / col[row]
        nz = pivot_row.nonzero()[0]
        # column by column: a fancy-indexed T[:, nz] update copies the columns
        # out and scatters them back, several times slower on large tableaux
        for j, factor in zip(nz.tolist(), pivot_row[nz].tolist()):
            column = T[:, j]
            column -= col * factor
        T[row] = pivot_row
        basis[row] = entering
        if entering == objective:
            objective_row = row
        elif row == objective_row:
            objective_row = -1
    raise NoConsistentModel(f"simplex did not finish within {_MAX_PIVOTS} pivots")


# ---------------------------------------------------------------------------
# GF(2)


@dataclass(frozen=True)
class Gf2Equation:
    """XOR of the named variables equals rhs (a bit)."""

    variables: Tuple[int, ...]
    rhs: int


@dataclass(frozen=True)
class Gf2System:
    n_vars: int
    equations: Tuple[Gf2Equation, ...]

    def __post_init__(self):
        for k, eq in enumerate(self.equations):
            if eq.rhs not in (0, 1):
                raise BadParameter(f"equation {k} has non-bit rhs {eq.rhs}")
            for v in eq.variables:
                if not 0 <= v < self.n_vars:
                    raise BadParameter(f"equation {k} references unknown variable {v}")


@dataclass(frozen=True)
class Inconsistent:
    """Returned when the system has no solution."""

    equation: int
    message: str


def gf2_solve(system: Gf2System) -> Union[np.ndarray, Inconsistent]:
    """Gaussian elimination over GF(2) with int bitsets; free variables are 0."""
    rows: List[List[int]] = []
    for idx, eq in enumerate(system.equations):
        mask = 0
        for v in eq.variables:
            mask ^= 1 << v
        rows.append([mask, eq.rhs & 1, idx])

    pivot_rows: Dict[int, int] = {}
    used = [False] * len(rows)
    for col in range(system.n_vars):
        pivot = next(
            (r for r in range(len(rows)) if rows[r][0] >> col & 1 and not used[r]),
            None,
        )
        if pivot is None:
            continue
        pivot_rows[col] = pivot
        used[pivot] = True
        for r in range(len(rows)):
            if r != pivot and rows[r][0] >> col & 1:
                rows[r][0] ^= rows[pivot][0]
                rows[r][1] ^= rows[pivot][1]
    for mask, rhs_bit, idx in rows:
        if mask == 0 and rhs_bit == 1:
            return Inconsistent(equation=idx, message=f"equation {idx} reduces to 0 = 1")
    x = np.zeros(system.n_vars, dtype=np.int64)
    for col, r in pivot_rows.items():
        x[col] = rows[r][1]
    return x

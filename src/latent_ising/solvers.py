"""In-repo feasibility solvers: a bounded-log-weight interval LP and GF(2).

Both solvers are deliberately small and dependency-free.  Problem sizes are
tiny (one variable per tree edge, one constraint pair per leaf pair), so a
dense one-phase simplex with Bland's rule is plenty: shifting the maximized
slack by a constant makes the origin a feasible start, so no artificial
columns are needed.  Determinism matters more than speed.
"""

from __future__ import annotations

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
            if con.lower is not None and con.upper < con.lower - 1e-15:
                raise BadParameter(f"constraint {k} has upper < lower")


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
    rows: List[np.ndarray] = []
    rhs: List[float] = []
    origin: List[Tuple[int, str]] = []
    t = np.zeros(nv + 1)
    t[nv] = 1.0
    for k, con in enumerate(lp.constraints):
        path = np.zeros(nv + 1)
        path[list(con.variables)] = 1.0
        rows.append(t - path)  # -sum(x) + t <= upper
        rhs.append(con.upper)
        origin.append((k, "upper"))
        if con.lower is not None:
            rows.append(t + path)  # sum(x) + t <= -lower
            rhs.append(-con.lower)
            origin.append((k, "lower"))
    rows.append(t)  # t <= cap
    rhs.append(_SLACK_CAP)

    m = len(rows)
    t0 = min(0.0, min(rhs))
    T = np.hstack([np.array(rows), np.eye(m), np.array(rhs)[:, None] - t0])
    basis = np.arange(nv + 1, nv + 1 + m)
    cost = np.zeros(nv + 1 + m)
    cost[nv] = 1.0
    _simplex_iterate(T, basis, cost)

    x = np.zeros(nv + 1 + m)
    x[basis] = T[:, -1]
    if t0 + x[nv] < -_TOL:
        duals = cost[basis] @ T[:, nv + 1 : nv + m]
        k, side = origin[int(np.argmax(duals))]
        con = lp.constraints[k]
        return Infeasible(
            constraint=k,
            side=side,
            message=f"no assignment satisfies the {side} bound of constraint {k} "
            f"(interval [{con.lower}, {con.upper}])",
        )
    return -x[:nv]


def _simplex_iterate(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """Maximize cost.x over the tableau T = [A | b] from a feasible basis.

    Bland's rule: the first improving column enters; among rows whose ratio
    is within _TOL of the smallest, the one with the smallest basic column
    leaves.
    """
    for _ in range(_MAX_PIVOTS):
        reduced = cost - cost[basis] @ T[:, :-1]
        improving = np.flatnonzero(reduced > _TOL)
        if improving.size == 0:
            return
        col = T[:, improving[0]]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(col > _TOL, T[:, -1] / col, np.inf)
        if np.isinf(ratios.min()):  # pragma: no cover - the slack cap bounds t
            raise NoConsistentModel("simplex found an unbounded ray")
        ties = np.flatnonzero(ratios <= ratios.min() + _TOL)
        row = ties[np.argmin(basis[ties])]
        pivot_row = T[row] / col[row]
        T -= np.outer(col, pivot_row)
        T[row] = pivot_row
        basis[row] = improving[0]
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
    for col in range(system.n_vars):
        pivot = next(
            (r for r in range(len(rows)) if rows[r][0] >> col & 1 and r not in pivot_rows.values()),
            None,
        )
        if pivot is None:
            continue
        pivot_rows[col] = pivot
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

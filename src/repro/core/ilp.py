"""ILP scheduler (§5.2).

The exact (finite-horizon) formulation of the scheduling problem as an
integer linear program.  With ``f_{i,j,k}`` indicating that the j-th
block of request i is sent in slot k, the objective (Eq. 3) is

.. math::
   \\max \\sum_{i}\\sum_{j}\\sum_{k} f_{i,j,k}\\, U^k_{i,j},
   \\qquad
   U^k_{i,j} = \\sum_{t=k}^{C} \\gamma^{t-1} P(q_i \\mid t)\\, g_i(j)

subject to per-slot bandwidth (``Σ_{i,j} f_{i,j,k} ≤ w``) and
send-once (``Σ_k f_{i,j,k} ≤ 1``) constraints.  The ring buffer's
capacity is implicit in the horizon ``C``.

The paper solved this with Gurobi and found it hopeless for real-time
use (Fig. 15: up to tens of minutes on toy instances); we use SciPy's
HiGHS ``milp``.  Problem size is ``n · Nb · C`` binaries — the image
application would need half a billion — so this scheduler exists for
ground truth on micro instances (Figs. 15 & 17), exactly as in the
paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .distribution import RequestDistribution
from .scheduler import GainTable, ScheduledBlock

__all__ = ["ILPScheduler", "ILPSolution"]


class ILPSolution:
    """A solved schedule plus solver diagnostics."""

    def __init__(
        self,
        schedule: list[ScheduledBlock],
        objective: float,
        status: int,
        message: str,
        num_variables: int,
    ) -> None:
        self.schedule = schedule
        self.objective = objective
        self.status = status
        self.message = message
        self.num_variables = num_variables

    @property
    def optimal(self) -> bool:
        return self.status == 0


class ILPScheduler:
    """Solves Eq. 3 exactly for small instances.

    Parameters mirror the problem definition: ``gains`` fixes ``n`` and
    ``g_i``, ``cache_blocks`` the horizon ``C``, ``bandwidth_blocks``
    the per-slot budget ``w`` (the paper's ``l``; 1 block per slot by
    definition of the slot), ``gamma`` the future discount.
    """

    def __init__(
        self,
        gains: GainTable,
        cache_blocks: int,
        bandwidth_blocks: int = 1,
        gamma: float = 1.0,
    ) -> None:
        if cache_blocks < 1:
            raise ValueError("cache must hold at least one block")
        if bandwidth_blocks < 1:
            raise ValueError("bandwidth must admit at least one block per slot")
        if not 0 <= gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")
        self.gains = gains
        self.C = cache_blocks
        self.w = bandwidth_blocks
        self.gamma = gamma
        # scipy is imported here and in solve(), not at module level: it
        # is the bulk of ``import repro`` time and only this solver needs
        # it.  Loading it at construction keeps the one-off import out of
        # timed solve() calls (Figs. 15 and 17).
        import scipy.optimize  # noqa: F401

    # -- problem construction -----------------------------------------

    def _utility_coefficients(
        self, dist: RequestDistribution, slot_duration_s: float
    ) -> np.ndarray:
        """Dense ``U[k, i, j]`` tensor of expected utility gains.

        ``U^k_{i,j}``: sending block j of request i in slot k earns its
        gain ``g_i(j)`` weighted by the request's probability over every
        remaining slot ``t ≥ k`` (the block stays cached through the
        batch), discounted by ``γ^{t-1}``.
        """
        n = self.gains.n
        C = self.C
        max_nb = int(self.gains.num_blocks.max())
        # prob[t-1, i] = P(q_i | t · slot_duration), t = 1..C
        prob = np.empty((C, n))
        for t in range(1, C + 1):
            prob[t - 1] = self.gains_probabilities(dist, t * slot_duration_s)
        discount = self.gamma ** np.arange(C)
        weighted = prob * discount[:, None]
        # tail[k-1, i] = Σ_{t=k}^{C} γ^{t-1} P(q_i | t)
        tail = np.cumsum(weighted[::-1], axis=0)[::-1]
        U = np.zeros((C, n, max_nb))
        for i in range(n):
            g = self.gains.gains_of(i)
            U[:, i, : len(g)] = tail[:, i : i + 1] * g[None, :]
        return U

    @staticmethod
    def gains_probabilities(dist: RequestDistribution, delta_s: float) -> np.ndarray:
        return dist.dense_at(delta_s)

    def solve(
        self,
        dist: RequestDistribution,
        slot_duration_s: float = 0.01,
        time_limit_s: Optional[float] = None,
    ) -> ILPSolution:
        """Build and solve the ILP; returns the slot-ordered schedule."""
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint, milp

        if slot_duration_s <= 0:
            raise ValueError("slot duration must be positive")
        n, C = self.gains.n, self.C
        max_nb = int(self.gains.num_blocks.max())
        U = self._utility_coefficients(dist, slot_duration_s)

        # Flatten f_{k,i,j} with k outermost: idx = (k*n + i)*max_nb + j.
        num_vars = C * n * max_nb
        c = -U.reshape(num_vars)  # milp minimizes

        # Mask out nonexistent blocks (j >= Nb_i): force them to 0 via bounds.
        upper = np.ones(num_vars)
        for i in range(n):
            nb = self.gains.blocks_of(i)
            if nb < max_nb:
                for k in range(C):
                    base = (k * n + i) * max_nb
                    upper[base + nb : base + max_nb] = 0.0

        constraints = []
        # (1) per-slot bandwidth: Σ_{i,j} f_{k,i,j} ≤ w
        rows, cols = [], []
        for k in range(C):
            start = k * n * max_nb
            for offset in range(n * max_nb):
                rows.append(k)
                cols.append(start + offset)
        A_slot = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(C, num_vars)
        )
        constraints.append(LinearConstraint(A_slot, -np.inf, self.w))
        # (2) send-once: Σ_k f_{k,i,j} ≤ 1
        rows, cols = [], []
        for i in range(n):
            for j in range(max_nb):
                row = i * max_nb + j
                for k in range(C):
                    rows.append(row)
                    cols.append((k * n + i) * max_nb + j)
        A_once = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n * max_nb, num_vars)
        )
        constraints.append(LinearConstraint(A_once, -np.inf, 1.0))

        options = {}
        if time_limit_s is not None:
            options["time_limit"] = time_limit_s
        result = milp(
            c,
            constraints=constraints,
            integrality=np.ones(num_vars),
            bounds=Bounds(0.0, upper),
            options=options,
        )

        schedule: list[ScheduledBlock] = []
        if result.x is not None:
            x = np.round(result.x.reshape(C, n, max_nb)).astype(int)
            for k in range(C):
                chosen = np.argwhere(x[k] == 1)
                # Deterministic order within a slot: request, then block.
                for i, j in sorted(map(tuple, chosen)):
                    schedule.append(ScheduledBlock(request=int(i), index=int(j)))
        objective = -float(result.fun) if result.fun is not None else 0.0
        return ILPSolution(
            schedule=schedule,
            objective=objective,
            status=int(result.status),
            message=str(result.message),
            num_variables=num_vars,
        )

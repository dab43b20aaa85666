"""Geometric rank by rank-stratified point counting over an extension tower.

Two routes are computed: the stratification min_r (r + codim X_r), where
X_r = {x : rank(sum_i x_i A_i) <= r}, and the kernel-codimension definition
codim{(x, y) : f(x, y) = 0}.  Both use exact enumeration when affordable and
seeded Monte Carlo otherwise; sampled strata never silently enter the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetExceeded, VerificationFailed
from .rankprofile import ELIM_BUDGET, MC_SAMPLES, RankProfile, rank_profile, rank_profiles
from .tensor import Tensor3, slice_space
from .variety import CountRecord, DimEstimate, count_record, estimate_from_counts, exact_estimate


def _strata_records(prof: RankProfile) -> list[CountRecord]:
    """|X_r| for each r, cumulative.  X_r holds the origin, so a sampled count is at least 1."""
    counts = np.cumsum(prof.hist)
    if prof.exact:
        return [CountRecord(prof.k, c) for c in counts.tolist()]
    records = (count_record(prof.k, prof.q, c, prof.samples, prof.total) for c in counts)
    return [replace(rec, count=max(rec.count, 1.0)) for rec in records]


def rank_strata_counts(
    T: Tensor3,
    k: int,
    axis: str = "x",
    budget: int = ELIM_BUDGET,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
):
    """Per-r counts |X_r(F_{q^k})| (cumulative in r); exact when within budget.

    Returns a list of CountRecord, one per r in [0, min of the other two dims].
    """
    return _strata_records(rank_profile(T, k, axis, budget, mc_samples, seed))


@dataclass
class GRReport:
    argmin_r: int
    axis: str
    strata: dict  # r -> DimEstimate
    kernel: DimEstimate | None = None

    @property
    def gr(self) -> int:
        return self.argmin_r + self.strata[self.argmin_r].codim

    @property
    def stable(self) -> bool:
        return self.strata[self.argmin_r].status == "stable"

    @property
    def stable_gr(self) -> int | None:  # what a bound or check may read: GR if stable, else None
        return self.gr if self.stable else None

    @property
    def consistent(self) -> bool | None:  # kernel codim == GR, None unless both are stable
        settled = self.kernel and self.kernel.status == "stable" and self.stable
        return self.kernel.codim == self.gr if settled else None

    def to_dict(self):
        return {
            "gr": self.gr,
            "argmin_r": self.argmin_r,
            "axis": self.axis,
            "stable": self.stable,
            "consistent": self.consistent,
            "strata": {r: est.to_dict() for r, est in self.strata.items()},
            "kernel": self.kernel.to_dict() if self.kernel else None,
        }


def geometric_rank(
    T: Tensor3,
    kmax: int = 3,
    axis: str = "x",
    budget: int = ELIM_BUDGET,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
    cross_check: bool = False,
    profiles: list[RankProfile] | None = None,
) -> GRReport:
    """GR = min_r (r + codim X_r) from tower estimates of each stratum.

    X_0, the x with sum_i x_i A_i = 0, is a linear subspace defined over F_q,
    so its dim is exact: read from an exact k = 1 profile, whose hist[0] is
    q^dim X_0, and from the slice span only when that level is sampled.
    Every exact level must count q^(k dim X_0) points at rank 0, or
    VerificationFailed is raised.  `profiles`: the rank profiles along `axis`
    for k = 1..kmax, if the caller has them.
    """
    if kmax < 2:
        raise BudgetExceeded("kmax must be >= 2")
    n_coeff = T.dims["xyz".index(axis)]
    if not T.summands:  # zero: X_0 is everything, known without counting q^n points
        kernel = kernel_codim(T, kmax) if cross_check else None
        return GRReport(0, axis, {0: exact_estimate(n_coeff, n_coeff)}, kernel)
    if profiles is None:
        profiles = rank_profiles([T], range(1, kmax + 1), axis, budget, mc_samples, [seed])[0]
    k1 = profiles[0]
    if k1.exact:
        dim0 = round(math.log(k1.hist[0], k1.q))  # checked to be exact below
    else:
        dim0 = n_coeff - slice_space(T, axis).dim
    for prof in profiles:
        if prof.exact and int(prof.hist[0]) != prof.q ** dim0:
            raise VerificationFailed(
                f"|X_0(F_{prof.q})| = {int(prof.hist[0])} is not {prof.q}^{dim0}"
            )
    per_k = [_strata_records(prof) for prof in profiles]
    strata: dict[int, DimEstimate] = {}
    for r, counts in enumerate(zip(*per_k)):  # r = 0..min of the other two dims
        if r == 0:  # exact codim, no estimation
            strata[0] = exact_estimate(n_coeff, dim0, counts)
        else:
            strata[r] = estimate_from_counts(T.field.q, n_coeff, counts)
    r = min(strata, key=lambda r: r + strata[r].codim)  # the first minimal r
    kernel = None
    if cross_check:
        kernel = kernel_codim(
            T, kmax, budget=budget, mc_samples=mc_samples, seed=seed,
            profiles=profiles if axis == "x" else None,
        )
    return GRReport(r, axis, strata, kernel)


def kernel_codim(
    T: Tensor3,
    kmax: int = 3,
    budget: int = ELIM_BUDGET,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
    profiles: list[RankProfile] | None = None,
) -> DimEstimate:
    """Dimension estimate of ker f = {(x, y) : f(x, y) = 0} in (n1+n2)-space.

    For fixed x the y-fiber is a linear kernel of exact size q^(n2 - rank), so
    the count over F_{q^k} is an exact sum over x (or a low-variance sampled
    average in Monte Carlo mode).  `profiles` are the x-axis rank profiles
    for k = 1..kmax when the caller already has them.  A zero tensor's kernel
    is the whole space: it is answered without a count.
    """
    n1, n2, _ = T.dims
    if not T.summands:  # zero: ker f is everything, known without counting q^(n1 + n2) points
        return exact_estimate(n1 + n2, n1 + n2)
    if profiles is None:
        profiles = rank_profiles([T], range(1, kmax + 1), "x", budget, mc_samples, [seed])[0]
    counts = [count_record(p.k, p.q, p.fiber_sum(n2), p.samples, p.total) for p in profiles]
    return estimate_from_counts(T.field.q, n1 + n2, counts)

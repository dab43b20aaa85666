"""Geometric rank by rank-stratified point counting over an extension tower.

Two routes are computed: the stratification min_r (r + codim X_r), where
X_r = {x : rank(sum_i x_i A_i) <= r}, and the kernel-codimension definition
codim{(x, y) : f(x, y) = 0}.  Both use exact enumeration when affordable and
seeded Monte Carlo otherwise; sampled strata never silently enter the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BudgetExceeded
from .rankprofile import ELIM_BUDGET, MC_SAMPLES, RankProfile, rank_profile
from .tensor import Tensor3, slice_dims
from .variety import CountRecord, DimEstimate, estimate_from_counts, exact_estimate


def _record(prof: RankProfile, count) -> CountRecord:
    """A count over the profile's points: exact, or the mean per draw scaled to the space."""
    if prof.exact:
        return CountRecord(k=prof.k, count=int(count), exact=True)
    return CountRecord(
        k=prof.k, count=float(count / prof.samples) * prof.total, exact=False, samples=prof.samples
    )


def _strata_records(prof: RankProfile) -> list[CountRecord]:
    return [_record(prof, c) for c in np.cumsum(prof.hist)]


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
    gr: int
    argmin_r: int
    axis: str
    strata: dict = dc_field(default_factory=dict)  # r -> DimEstimate
    kernel: DimEstimate | None = None
    stable: bool = False
    consistent: bool | None = None
    # the rank profiles along `axis` for k = 1..kmax (none for a zero tensor); not reported
    profiles: list[RankProfile] = dc_field(default_factory=list, repr=False)

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

    `profiles`: the rank profiles along `axis` for k = 1..kmax, if the caller has them.
    """
    if kmax < 2:
        raise BudgetExceeded("kmax must be >= 2")
    ax = "xyz".index(axis)
    n_coeff = T.dims[ax]
    rmax = min(dim for i, dim in enumerate(T.dims) if i != ax)
    if T.is_zero() or 0 in T.dims:
        report = GRReport(gr=0, argmin_r=0, axis=axis, stable=True)
        report.strata[0] = exact_estimate(n_coeff, n_coeff)
        if cross_check:
            report.kernel = exact_estimate(T.dims[0] + T.dims[1], T.dims[0] + T.dims[1])
            report.consistent = True
        return report

    if profiles is None:
        profiles = [
            rank_profile(T, k, axis, budget, mc_samples, seed) for k in range(1, kmax + 1)
        ]
    per_k = [_strata_records(prof) for prof in profiles]
    d = slice_dims(T)[ax]
    strata: dict[int, DimEstimate] = {}
    for r in range(rmax + 1):
        counts = [per_k[k - 1][r] for k in range(1, kmax + 1)]
        if r == 0:
            # X_0 is the kernel of a linear map: exact codim, no estimation
            strata[0] = exact_estimate(n_coeff, n_coeff - d, counts)
        else:
            strata[r] = estimate_from_counts(T.field.q, n_coeff, counts)
    best_r, best_val, best_stable = None, None, False
    for r, est in strata.items():
        if est.status == "empty":
            continue
        val = r + est.codim
        if best_val is None or val < best_val:
            best_r, best_val = r, val
            best_stable = est.status == "stable"
    report = GRReport(
        gr=best_val, argmin_r=best_r, axis=axis, strata=strata, stable=best_stable,
        profiles=profiles,
    )
    if cross_check:
        report.kernel = kernel_codim(
            T, kmax, budget=budget, mc_samples=mc_samples, seed=seed,
            profiles=profiles if axis == "x" else None,
        )
        if report.kernel.status in ("stable", "empty") and best_stable:
            report.consistent = report.kernel.codim == report.gr
    return report


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
    for k = 1..kmax when the caller already has them.
    """
    n1, n2, _ = T.dims
    if profiles is None:
        profiles = [
            rank_profile(T, k, "x", budget, mc_samples, seed) for k in range(1, kmax + 1)
        ]
    counts = [_record(prof, prof.fiber_sum(n2)) for prof in profiles]
    return estimate_from_counts(T.field.q, n1 + n2, counts)

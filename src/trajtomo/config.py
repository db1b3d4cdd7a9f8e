"""Shared numerical tolerances.

All thresholds that decide "is this still a state" or "has this converged"
live in one record so that the whole pipeline agrees on them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DEFAULT", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    Attributes:
        psd: eigenvalues of states and effects may dip to -psd before the
            object is rejected.  Chosen well above accumulated roundoff of
            long Kraus products but far below any physical population.
        trace: admissible deviation of a state or effect trace from one.
        kraus_trace: admissible deviation of a Kraus step from trace
            preservation, summed over outcomes.
        prob_floor: a step probability at or below this value counts as
            an impossible outcome.
        kkt: optimality residual per record; the solver certifies at
            kkt * n_records.
        rank_rel: eigenvalues below rank_rel * max_eigenvalue count as
            zero when ranking a reconstructed state.
        singular_rel: singular values below singular_rel * largest are
            treated as exact zeros in pseudo-inverses, separating flat
            likelihood directions from roundoff.
        eig_clip: eigenvalues in (-eig_clip, -psd) found during time
            stepping are treated as integration roundoff and projected
            away; anything below -eig_clip is a hard step failure.
    """

    psd: float = 1e-10
    trace: float = 1e-10
    kraus_trace: float = 1e-9
    prob_floor: float = 1e-300
    kkt: float = 1e-7
    rank_rel: float = 1e-8
    singular_rel: float = 1e-10
    eig_clip: float = 1e-6

    def with_(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT = Tolerances()

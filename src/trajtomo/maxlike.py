"""Maximum-likelihood state reconstruction over compressed records.

With every record n reduced to a pair (log c_n, E_n), the log likelihood

    f(rho) = sum_n [log c_n + log tr(rho E_n)]

is concave on the state set, and its gradient is G = sum_n E_n / tr(rho E_n).
The optimizer climbs f with projected gradient steps and stops once the
first-order optimality conditions hold to a scaled tolerance:

    [rho, G] = 0,    G <= lambda * I,    G = lambda * I on the support,

with lambda = tr(rho G), which equals the record count at any state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import KKT_TOL, RANK_REL
from .errors import DegenerateLikelihood, DegenerateTrace
from .filtering import _of_dim, _stack_effects
from .operators import DensityMatrix, _hermitian, _integer, _number, project_to_density

__all__ = [
    "KKTReport",
    "TomographyResult",
    "gradient",
    "kkt_certificate",
    "log_likelihood",
    "solve_maxlike",
]


# backtracking line search: sufficient-increase fraction, step multiplier
# per backtrack, and backtracks per iteration before giving up on the step
_ARMIJO_C1 = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class KKTReport:
    """Stationarity diagnostics at a candidate state.

    residual is the worst of three numbers, all zero at an exact optimum:
    the Frobenius norm of [rho, G], how far the top of G pokes above
    lambda, and how far G dips below lambda on the support of rho.
    """

    residual: float
    commutator_norm: float
    ascent_excess: float
    support_deficit: float
    lagrange_multiplier: float
    rank: int
    threshold: float
    satisfied: bool


@dataclass(frozen=True)
class TomographyResult:
    rho: DensityMatrix
    log_likelihood: float
    gradient: np.ndarray
    kkt: KKTReport
    n_records: int
    n_iterations: int
    certified: bool
    f_history: tuple[float, ...]

    @property
    def rank(self) -> int:
        return self.kkt.rank

    @property
    def lagrange_multiplier(self) -> float:
        return self.kkt.lagrange_multiplier


def _traces(e_flat: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """tr(M E_n) for every row n of the flattened (N, d*d) effect stack, as
    one product with M.T.ravel(); an (m, d, d) stack of M gives (N, m)."""
    flat = np.swapaxes(mats, -1, -2).reshape(mats.shape[:-2] + (-1,))
    return (e_flat @ flat.T).real


def _f_and_traces(mat: np.ndarray, e_flat: np.ndarray, logc_sum: float):
    traces = _traces(e_flat, mat)
    if traces.min() <= 0.0:
        return -math.inf, traces
    return float(logc_sum + np.log(traces).sum()), traces


def log_likelihood(rho, effects) -> float:
    """Total log likelihood sum_n [log c_n + log tr(rho E_n)].

    Returns -inf when some tr(rho E) is not strictly positive: the state
    assigns zero probability to at least one record.
    """
    e, logc = _stack_effects(effects)
    if e.shape[0] == 0:
        return 0.0
    mat = _of_dim(rho, e.shape[1], "state")
    return _f_and_traces(mat, e.reshape(e.shape[0], -1), float(logc.sum()))[0]


def _grad_matrix(e_flat: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """sum_n E_n / t_n from the flattened effect stack, symmetrized."""
    dim = math.isqrt(e_flat.shape[1])
    g = ((1.0 / traces) @ e_flat).reshape(dim, dim)
    return (g + g.conj().T) / 2.0


def _checked_traces(rho, effects):
    """The state's matrix, the flattened effect stack and tr(rho E_n),
    refusing a zero trace."""
    e, _ = _stack_effects(effects)
    if e.shape[0] == 0:
        raise ValueError("no effects given")
    mat = _of_dim(rho, e.shape[1], "state")
    e_flat = e.reshape(e.shape[0], -1)
    traces = _traces(e_flat, mat)
    if traces.min() <= 0.0:
        raise DegenerateTrace("state assigns zero probability to some record")
    return mat, e_flat, traces


def gradient(rho, effects) -> np.ndarray:
    """Likelihood gradient sum_n E_n / tr(rho E_n) at the given state, as
    a read-only Hermitian matrix."""
    _, e_flat, traces = _checked_traces(rho, effects)
    return _hermitian(_grad_matrix(e_flat, traces))


def kkt_certificate(rho, effects) -> KKTReport:
    """Check first-order optimality of a state for the given effects."""
    mat, e_flat, traces = _checked_traces(rho, effects)
    g = _grad_matrix(e_flat, traces)
    return _certificate(mat, g, e_flat.shape[0], KKT_TOL)


def _support(mat: np.ndarray):
    """Eigendecomposition (w, v) of a state and the mask of its support,
    the eigenvalues above RANK_REL times the largest: the rank rule of
    both the certificate and the stiffness form."""
    w, v = np.linalg.eigh(mat)
    eps = RANK_REL * max(float(w[-1]), 0.0)
    return w, v, w > eps


def _certificate(
    mat: np.ndarray, g: np.ndarray, n_records: int, kkt_tol: float
) -> KKTReport:
    lam = float(np.einsum("ij,ji->", mat, g).real)
    comm = mat @ g - g @ mat
    comm_norm = float(np.linalg.norm(comm))
    g_eigs = np.linalg.eigvalsh(g)
    ascent = max(0.0, float(g_eigs[-1]) - lam)
    _, v, support = _support(mat)
    rank = int(support.sum())
    if rank == 0:
        support_deficit = math.inf
    else:
        vr = v[:, support]
        inner = np.linalg.eigvalsh(vr.conj().T @ g @ vr)
        support_deficit = max(0.0, lam - float(inner[0]))
    residual = max(comm_norm, ascent, support_deficit)
    threshold = kkt_tol * max(n_records, 1)
    return KKTReport(
        residual=residual,
        commutator_norm=comm_norm,
        ascent_excess=ascent,
        support_deficit=support_deficit,
        lagrange_multiplier=lam,
        rank=rank,
        threshold=threshold,
        satisfied=residual <= threshold,
    )


def _check_options(max_iterations: int, kkt_tol: float) -> None:
    """Refuse a ``kkt_tol`` outside (0, inf), or a negative
    ``max_iterations``; the command line checks its options with it too."""
    _number(kkt_tol, "kkt_tol", "(0, inf)")
    if _integer(max_iterations, "max_iterations") < 0:
        raise ValueError(f"max_iterations must be nonnegative, got {max_iterations!r}")


def solve_maxlike(
    effects,
    *,
    max_iterations: int = 10_000,
    kkt_tol: float = KKT_TOL,
) -> TomographyResult:
    """Find the state maximizing the compressed-record likelihood.

    Projected gradient ascent from I/d with a Barzilai-Borwein step
    proposal and a monotone backtracking line search, whose
    sufficient-increase test sums the rise in f from the per-record trace
    ratios.  Iterations stop as soon as the stationarity certificate
    passes; hitting the iteration cap returns the best state found with
    ``certified=False``.  ``f_history`` holds f at the start and after
    every iteration.  The certificate passes at a residual of ``kkt_tol``
    per record; it must be finite and positive, and ``max_iterations``
    nonnegative.
    """
    _check_options(max_iterations, kkt_tol)
    e, logc = _stack_effects(effects)
    n = e.shape[0]
    if n == 0:
        raise ValueError("no effects given")
    dim = e.shape[1]
    eye = np.eye(dim)
    unit = e / np.einsum("nii->n", e).real[:, None, None]
    if float(np.abs(unit - eye / dim).max()) <= 1e-12:
        raise DegenerateLikelihood(
            "every effect is maximally mixed; the likelihood does not depend "
            "on the state"
        )
    logc_sum = float(logc.sum())
    e_flat = e.reshape(n, -1)
    # every effect has a positive trace, so f is finite at I/d
    mat = eye.astype(complex) / dim
    f, traces = _f_and_traces(mat, e_flat, logc_sum)
    g = _grad_matrix(e_flat, traces)
    history = [f]
    alpha = 1.0 / max(n, 1)
    report = _certificate(mat, g, n, kkt_tol)
    iters = 0
    while iters < max_iterations and not report.satisfied:
        iters += 1
        accepted = False
        step = alpha
        lam = report.lagrange_multiplier
        for _ in range(_MAX_BACKTRACKS):
            cand = project_to_density(mat + step * g).matrix
            delta = cand - mat
            # the rise is summed from tr(delta E_n) / t_n, below f's roundoff,
            # and both it and the gain drop the n tr(delta) roundoff term
            shift = float(delta.trace().real)
            gain = float(np.einsum("ij,ji->", g, delta).real) - lam * shift
            ratio = _traces(e_flat, delta) / traces
            if (
                ratio.min() > -1.0
                and np.log1p(ratio).sum() - n * math.log1p(shift)
                >= _ARMIJO_C1 * gain
            ):
                f_new, traces_new = _f_and_traces(cand, e_flat, logc_sum)
                if math.isfinite(f_new):
                    accepted = True
                    break
            step *= _ARMIJO_SHRINK
        if not accepted:
            break
        g_new = _grad_matrix(e_flat, traces_new)
        s = delta.reshape(-1)
        y = (g - g_new).reshape(-1)
        sy = float(np.vdot(s, y).real)
        if sy > 0.0:
            alpha = min(max(float(np.vdot(s, s).real) / sy, 1e-18), 1e18)
        else:
            alpha = min(step * 2.0, 1e18)
        mat, f, g, traces = cand, f_new, g_new, traces_new
        history.append(f)
        report = _certificate(mat, g, n, kkt_tol)
    rho = DensityMatrix(mat)
    return TomographyResult(
        rho=rho,
        log_likelihood=f,
        gradient=_hermitian(g),
        kkt=report,
        n_records=n,
        n_iterations=iters,
        certified=report.satisfied,
        f_history=tuple(history),
    )

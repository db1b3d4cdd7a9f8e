"""Error bars for reconstructed states.

The reconstruction is a constrained maximum-likelihood problem, so the
usual inverse-Hessian rule needs two amendments: curvature is measured
only along directions that keep the state Hermitian, trace-one and
positive (the tangent space of the rank-r stratum), and sitting on the
boundary contributes extra stiffness through the curvature of the
positivity constraint itself.  Both effects are packaged into a single
positive semidefinite form R on the tangent space:

    R(X) = sum_n tr(X E_n) / tr(rho E_n)^2 * E_par,n
         + D X rho_pinv + rho_pinv X D,        D = Q (lambda I - G) Q,

where E_par,n is the tangent projection of E_n, G is the likelihood
gradient, lambda = tr(rho G), Q projects off the support of rho, and
rho_pinv is the pseudoinverse on the support.  The first sum is exactly
the negative Hessian of the log likelihood restricted to the tangent
space; the second piece is the boundary stiffness.  The variance of an
observable A is then <A_par, R^{-1} A_par>, and a 95% interval is two
standard deviations.

R is written in a tangent basis built in closed form from one
eigendecomposition of rho (``RMatrix.basis``), whose split into support
and kernel also feeds the boundary piece.

An independent Monte Carlo estimate of the same posterior variance
(flat prior, importance sampling over the full state set) is provided
for cross-checking in low dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SINGULAR_REL
from .errors import DegenerateTrace, EffectiveSampleSizeTooLow, Unidentifiable
from .filtering import _of_dim, _stack_effects
from .maxlike import _checked_traces, _grad_matrix, _support, _traces
from .operators import DensityMatrix, _basis, _coords, _hermitian, _integer, as_matrix

__all__ = [
    "RMatrix",
    "build_r_matrix",
    "ObservableInterval",
    "MCEstimate",
    "posterior_variance_mc",
]

_NULL_OVERLAP = 1e-6  # relative weight along unconstrained directions that we tolerate
# effective sample size below which the importance weights count as
# degenerate: a posterior variance from ess draws has a relative error of
# about sqrt(2 / ess), 14% at 100, the coarsest a cross-check can use
_ESS_MIN = 100.0


def _eigenbasis_tangent(v: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Orthonormal Hermitian basis of the feasible directions at a state
    rho, from its eigenvectors v, with ``keep`` marking the support.

    A direction X is feasible when it is traceless and has no component in
    the kernel-kernel block of rho.  For an n-dimensional state of rank r
    there are n^2 - (n - r)^2 - 1 of them, returned as a read-only
    (m, n, n) stack.  In the eigenbasis of rho: the symmetric and
    antisymmetric Gell-Mann element of every pair (j < k) with j or k in
    the support, the rows of ``_basis`` in its order, then the r - 1
    traceless diagonals on the support, rotated back.
    """
    n = keep.size
    j, k = np.triu_indices(n, 1)
    pairs = _basis(n)[n:][np.repeat(keep[j] | keep[k], 2)].reshape(-1, n, n)
    sup = np.flatnonzero(keep)
    r = sup.size
    # row l - 1 is (sum_{m<l} |s_m><s_m| - l |s_l><s_l|) / sqrt(l (l + 1))
    ls = np.arange(1, r)
    diag = np.tri(r - 1, r)
    diag[ls - 1, ls] = -ls
    b = np.zeros((r - 1, n, n), dtype=complex)
    b[:, sup, sup] = diag / np.sqrt(ls * (ls + 1.0))[:, None]
    return _hermitian(v @ np.concatenate([pairs, b]) @ v.conj().T)


@dataclass(frozen=True)
class ObservableInterval:
    """Point estimate and spread for one observable.

    half_width_95 is two standard deviations, matching a 95% normal
    interval for the asymptotic posterior.
    """

    label: str
    mean: float
    variance: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    @property
    def half_width_95(self) -> float:
        return 2.0 * self.sigma

    @property
    def lo95(self) -> float:
        return self.mean - self.half_width_95

    @property
    def hi95(self) -> float:
        return self.mean + self.half_width_95


def _pinv_quadratic(w: np.ndarray, q: np.ndarray, u: np.ndarray) -> float:
    """<u, R^+ u> for a PSD matrix R with eigenvalues w (ascending) and
    eigenvectors q, the error-bar quadratic form of an observable with
    tangent coefficients u.

    Eigenvalues up to SINGULAR_REL times the largest count as
    zero modes.  Raises Unidentifiable when u has more than _NULL_OVERLAP
    relative weight along them.
    """
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        return 0.0
    cut = SINGULAR_REL * max(float(w[-1]), 0.0)
    live = w > cut
    proj = q.T @ u
    dead = float(np.linalg.norm(proj[~live]))
    if dead > _NULL_OVERLAP * norm:
        raise Unidentifiable(
            "observable has relative weight "
            f"{dead / norm:.2e} along directions the records do not "
            "constrain; its error bar is unbounded"
        )
    return float(np.sum(proj[live] ** 2 / w[live]))


class RMatrix:
    """The stiffness form R in an orthonormal tangent basis, ready to invert.

    basis is the (m, n, n) stack of tangent directions.  Built once per
    reconstruction; each observable then costs one small matrix-vector
    solve.
    """

    def __init__(self, rho: DensityMatrix, basis, matrix: np.ndarray, lam: float):
        self.rho = rho
        self.basis = np.asarray(basis)
        self.matrix = np.asarray(matrix, dtype=float)
        self.lagrange_multiplier = float(lam)
        w, u = np.linalg.eigh(self.matrix)
        self._eigvals = w
        self._eigvecs = u

    @property
    def tangent_dim(self) -> int:
        return self.basis.shape[0]

    def _coefficients(self, observable) -> np.ndarray:
        flat = self.basis.reshape(self.tangent_dim, -1)
        return _traces(flat, _of_dim(observable, self.rho.dim, "observable"))

    def variance(self, observable) -> float:
        """Squared error bar <A_par, R^{-1} A_par> for tr(rho A).

        Raises Unidentifiable when A has tangent weight along directions
        the records leave unconstrained (zero modes of R).
        """
        a = self._coefficients(observable)
        return _pinv_quadratic(self._eigvals, self._eigvecs, a)

    def interval(self, observable, label: str = "") -> ObservableInterval:
        mat = _of_dim(observable, self.rho.dim, "observable")
        mean = float(np.einsum("ij,ji->", mat, self.rho.matrix).real)
        return ObservableInterval(label, mean, self.variance(mat))


def build_r_matrix(rho, effects) -> RMatrix:
    """Assemble the stiffness form at a reconstructed state.

    The boundary piece uses D projected onto the kernel of rho: at an
    exact optimum the gradient already equals lambda on the support, so
    this changes nothing analytically but stops optimizer residue from
    being amplified by the pseudoinverse.
    """
    state = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    mat, e_flat, traces = _checked_traces(state, effects)
    split = _support(mat)
    basis = _eigenbasis_tangent(split[1], split[2])
    r, _, lam = _stiffness_form(mat, e_flat, traces, basis, split)
    return RMatrix(state, basis, r, lam)


def _stiffness_form(mat, e_flat, traces, bmats, split):
    """(R in the basis stack bmats, likelihood gradient G, lambda) at a state.

    e_flat is the flattened (N, n*n) effect stack, traces holds
    tr(mat E_n) for every effect, all positive, and split is the
    _support triple of mat.
    """
    g = _grad_matrix(e_flat, traces)
    lam = float(np.einsum("ij,ji->", mat, g).real)
    # curvature of the data term: sum_n (c_n c_n^T) / t_n^2 with c_n,i = tr(B_i E_n)
    c = _traces(e_flat, bmats) / traces[:, None]
    r = c.T @ c
    # boundary stiffness through the kernel block
    w, v, keep = split
    if not keep.all():
        vq = v[:, ~keep]
        d_q = vq @ (vq.conj().T @ (lam * np.eye(mat.shape[0]) - g) @ vq) @ vq.conj().T
        d_q = (d_q + d_q.conj().T) / 2.0
        vp = v[:, keep]
        pinv = (vp / w[keep]) @ vp.conj().T
        moved = d_q @ bmats @ pinv
        moved = moved + moved.conj().transpose(0, 2, 1)
        r = r + _traces(bmats.reshape(bmats.shape[0], -1), moved)
    r = (r + r.T) / 2.0
    return r, g, lam


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    """Importance-sampling estimate of the posterior law of tr(rho A).

    mean and variance are the posterior mean and central variance;
    stderr is the Monte Carlo standard error of the mean, so the
    sampling noise itself can be judged against any observed offset.
    For an (m, d, d) stack of observables the three are (m,) arrays.
    """

    mean: float | np.ndarray
    variance: float | np.ndarray
    stderr: float | np.ndarray
    ess: float
    n_samples: int
    n_valid: int


def posterior_variance_mc(
    effects,
    observable,
    center,
    *,
    n_samples: int = 200_000,
    seed: int = 0,
) -> MCEstimate:
    """Posterior spread of tr(rho A) by importance sampling over states.

    ``observable`` is one d x d matrix A or an (m, d, d) stack; a stack
    shares the draws and their weights, so the likelihood is evaluated
    once for all m.

    The proposal is a defensive mixture centered at the reconstructed
    state: 90% a Gaussian shaped by the stiffness form (flat directions
    get widths set by the linear decay rate of the likelihood, capped at
    the state-set diameter) and 10% a uniform ball large enough to cover
    the whole state set.  Draws landing outside the positive cone are
    discarded; the rest are reweighted by likelihood / proposal, which
    makes the prior flat on the state set.

    Exact up to sampling noise, hence the cross-check role.  Supported
    for dimension <= 3, where the acceptance rate of the ball component
    stays workable.

    Raises EffectiveSampleSizeTooLow when the effective sample size of
    the weights falls below _ESS_MIN.
    """
    n_samples = _integer(n_samples, "n_samples", 10_000)
    e, logc = _stack_effects(effects)
    n = e.shape[0]
    dim = e.shape[1] if n else as_matrix(center).shape[0]
    if n == 0:
        e = np.zeros((0, dim, dim), dtype=complex)
    if dim > 3:
        raise ValueError("Monte Carlo cross-check supports dimension <= 3")
    center_mat = _of_dim(center, dim, "center")
    a = _of_dim(observable, dim, "observable")
    DensityMatrix(center_mat)
    # at a full-rank state every traceless direction is tangent: the
    # generalized Gell-Mann set without the identity
    traceless = _eigenbasis_tangent(np.eye(dim), np.ones(dim, dtype=bool))
    m = traceless.shape[0]
    x0 = np.einsum("kij,ji->k", traceless, center_mat).real

    # shape the Gaussian component from the stiffness form in full
    # coordinates; with no effects the likelihood is flat and the
    # posterior is the bare prior, so the form degenerates to zero and
    # every direction falls back to the prior-scale width below
    e_flat = e.reshape(n, dim * dim)
    traces0 = _traces(e_flat, center_mat)
    if n and traces0.min() <= 0.0:
        raise DegenerateTrace("center assigns zero probability to some record")
    r_full, g, _ = _stiffness_form(
        center_mat, e_flat, traces0, traceless, _support(center_mat)
    )
    h, u = np.linalg.eigh(r_full)

    r_state = math.sqrt((dim - 1) / dim)
    ball_radius = r_state + float(np.linalg.norm(x0))
    h_floor = 1e-10 * max(float(h[-1]), 1.0)
    g_coeff = np.einsum("kij,ji->k", traceless, g).real
    sigmas = np.empty(m)
    for k in range(m):
        if h[k] > h_floor:
            sigmas[k] = math.sqrt(2.0 / h[k])
        else:
            kappa = abs(float(u[:, k] @ g_coeff))
            sigmas[k] = min(4.0 / kappa, r_state) if kappa > 0 else r_state
        sigmas[k] = min(sigmas[k], ball_radius)

    rng = np.random.default_rng(_integer(seed, "seed", 0))
    pick_ball = rng.random(n_samples) < 0.1
    z = rng.standard_normal((n_samples, m))
    xs = np.empty((n_samples, m))
    gauss = ~pick_ball
    xs[gauss] = x0 + (z[gauss] * sigmas) @ u.T
    n_ball = int(pick_ball.sum())
    if n_ball:
        dirs = rng.standard_normal((n_ball, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = ball_radius * rng.random(n_ball) ** (1.0 / m)
        xs[pick_ball] = x0 + dirs * radii[:, None]

    mats = np.einsum("sk,kij->sij", xs, traceless) + np.eye(dim) / dim
    eigs = np.linalg.eigvalsh(mats)
    valid = eigs[:, 0] >= 0.0
    xs, mats = xs[valid], mats[valid]
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise EffectiveSampleSizeTooLow("no proposal draw landed in the state set")

    # mixture log density, needed exactly for unbiased reweighting; every
    # state lies within ball_radius of the center, so the ball term is
    # always active and the density never underflows to zero
    diffs = (xs - x0) @ u
    log_gauss = (
        -0.5 * np.sum((diffs / sigmas) ** 2, axis=1)
        - np.log(sigmas).sum()
        - 0.5 * m * math.log(2.0 * math.pi)
    )
    log_ball_vol = (
        0.5 * m * math.log(math.pi)
        - math.lgamma(0.5 * m + 1.0)
        + m * math.log(ball_radius)
    )
    log_q = np.log(0.9 * np.exp(log_gauss) + 0.1 * math.exp(-log_ball_vol))

    phi = np.einsum("sij,...ji->s...", mats, a).real

    log_like = np.zeros(n_valid)
    if n:
        # tr(S E) as one real product of Hermitian coordinate rows
        e_coords, s_coords = _coords(e).T, _coords(mats)
        chunk = max(1, int(1.6e8 / (8 * n)))
        for lo in range(0, n_valid, chunk):
            hi = min(lo + chunk, n_valid)
            t = s_coords[lo:hi] @ e_coords
            bad = t.min(axis=1) <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ll = np.log(np.maximum(t, 1e-300)).sum(axis=1)
            ll[bad] = -np.inf
            log_like[lo:hi] = ll

    log_w = log_like - log_q
    finite = np.isfinite(log_w)
    if not finite.any():
        raise EffectiveSampleSizeTooLow("all importance weights vanished")
    log_w = log_w - log_w[finite].max()
    weights = np.where(finite, np.exp(log_w), 0.0)
    total = float(weights.sum())
    ess = total**2 / float((weights**2).sum())
    if ess < _ESS_MIN:
        raise EffectiveSampleSizeTooLow(
            f"effective sample size {ess:.1f} below the floor {_ESS_MIN:g}", ess=ess
        )
    norm_w = weights / total
    mean = norm_w @ phi
    variance = norm_w @ (phi - mean) ** 2
    stderr = np.sqrt(norm_w**2 @ (phi - mean) ** 2)
    if phi.ndim == 1:
        mean, variance, stderr = float(mean), float(variance), float(stderr)
    return MCEstimate(
        mean=mean,
        variance=variance,
        stderr=stderr,
        ess=ess,
        n_samples=n_samples,
        n_valid=n_valid,
    )

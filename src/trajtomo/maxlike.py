"""Maximum-likelihood state reconstruction over compressed records.

With every record n reduced to a pair (log c_n, E_n), the log likelihood

    f(rho) = sum_n [log c_n + log tr(rho E_n)]

is concave on the state set, and its gradient is G = sum_n E_n / tr(rho E_n).
The optimizer climbs f with projected gradient steps and stops once the
first-order optimality conditions hold to a scaled tolerance:

    [rho, G] = 0,    G <= lambda * I,    G = lambda * I on the support,

with lambda = tr(rho G), which equals the record count at any state.

The solver works on the blocks of the effects' joint exact nonzero
pattern in the computational basis, its connected components.  tr(rho E)
then reads only rho's matching diagonal blocks, so the optimum keeps
exact zeros off them, and each iterate is carried as its in-block
entries.  A projection decomposes each block larger than 1 x 1 once, and
one simplex projection takes all the blocks' eigenvalues together.
Commuting photon-counting effects are diagonal: every block is 1 x 1 and
the solve is a mixture likelihood on the simplex with no
eigendecomposition.  A dense problem is the one block of size d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import KKT_TOL, RANK_REL
from .errors import DegenerateLikelihood, DegenerateTrace
from .filtering import _of_dim, _stack_effects
from .operators import (
    DensityMatrix, _components, _hermitian, _integer, _number, _project_blocks,
)

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

    likelihood_gap = N log(lambda_max(G) / N) bounds f* - f(rho) from
    above: by Jensen's inequality f(sigma) - f(rho) = sum_n log(tr(sigma
    E_n) / tr(rho E_n)) <= N log(tr(sigma G) / N) for every state sigma.
    """

    residual: float
    commutator_norm: float
    ascent_excess: float
    support_deficit: float
    likelihood_gap: float
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


def _f(traces: np.ndarray, logc_sum: float) -> float:
    """f from the traces tr(rho E_n), -inf unless all are positive."""
    if traces.min() <= 0.0:
        return -math.inf
    return float(logc_sum + np.log(traces).sum())


class _Blocks:
    """The layout of a block-diagonal d x d matrix over the given parts,
    disjoint index sets covering 0..d-1.

    The matrix is carried as the vector of its in-block entries, at the
    row-major positions ``pos`` of the d x d matrix: the ``n1`` entries of
    the 1 x 1 blocks first, then each larger block row-major, at the
    slices of ``big``.  ``x[swap]`` is the vector of the transpose and
    ``x[diag]`` the diagonal.  One part of size d (``dense``) lays a dense
    matrix out as its row-major entries, so a dense problem runs the
    products of the plain matrix form.
    """

    def __init__(self, dim: int, parts) -> None:
        ones = [p for p in parts if p.size == 1]
        big = [p for p in parts if p.size > 1]
        self.dim, self.n1 = dim, len(ones)
        self.pos = np.concatenate(
            [np.zeros(0, int), *(p * (dim + 1) for p in ones),
             *((p[:, None] * dim + p).ravel() for p in big)]
        )
        where = np.zeros(dim * dim, int)
        where[self.pos] = np.arange(self.pos.size)
        self.swap = where[self.pos % dim * dim + self.pos // dim]
        self.diag = np.flatnonzero(self.pos % (dim + 1) == 0)
        ends = self.n1 + np.cumsum([p.size**2 for p in big], dtype=int)
        self.big = [(slice(e - p.size**2, e), p.size) for e, p in zip(ends, big)]

    @classmethod
    def dense(cls, dim: int) -> "_Blocks":
        """The one block of size dim: a matrix as its row-major entries."""
        return cls(dim, [np.arange(dim)])

    @classmethod
    def of(cls, e: np.ndarray) -> "_Blocks":
        """The layout of the connected components of the (N, d, d) effect
        stack's joint exact nonzero pattern, in which every effect, the
        gradient and every solver iterate are block diagonal."""
        linked = (e != 0).any(axis=0)
        return cls(e.shape[1], _components(linked | linked.T))

    def mats(self, x: np.ndarray) -> list[np.ndarray]:
        """The larger blocks of x, as square views."""
        return [x[s].reshape(b, b) for s, b in self.big]

    def pair(self, a: np.ndarray, b: np.ndarray) -> float:
        """Re tr(A B), summed block by block."""
        total = a[: self.n1] @ b[: self.n1]
        for s, k in self.big:
            total = total + np.einsum("ij,ji->", a[s].reshape(k, k), b[s].reshape(k, k))
        return float(total.real)

    def traces(self, e_blk: np.ndarray, x: np.ndarray) -> np.ndarray:
        """tr(X E_n) for every row n of the in-block effect stack e_blk."""
        return (e_blk @ x[self.swap]).real

    def gradient(self, e_blk: np.ndarray, traces: np.ndarray) -> np.ndarray:
        """sum_n E_n / t_n, symmetrized."""
        g = (1.0 / traces) @ e_blk
        return (g + g[self.swap].conj()) / 2.0

    def project(self, x: np.ndarray) -> np.ndarray:
        """The closest state, by ``operators._project_blocks``."""
        pops, mats = _project_blocks(x[: self.n1].real, self.mats(x))
        return np.concatenate([pops, *(m.ravel() for m in mats)])

    def full(self, x: np.ndarray) -> np.ndarray:
        """The d x d matrix, exactly zero off the blocks."""
        out = np.zeros(self.dim * self.dim, complex)
        out[self.pos] = x
        return out.reshape(self.dim, self.dim)


def log_likelihood(rho, effects) -> float:
    """Total log likelihood sum_n [log c_n + log tr(rho E_n)].

    Returns -inf when some tr(rho E) is not strictly positive: the state
    assigns zero probability to at least one record.
    """
    e, logc = _stack_effects(effects)
    if e.shape[0] == 0:
        return 0.0
    mat = _of_dim(rho, e.shape[1], "state")
    return _f(_traces(e.reshape(e.shape[0], -1), mat), float(logc.sum()))


def _grad_matrix(e_flat: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """sum_n E_n / t_n from the flattened effect stack, symmetrized."""
    dim = math.isqrt(e_flat.shape[1])
    return _Blocks.dense(dim).gradient(e_flat, traces).reshape(dim, dim)


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
    dense = _Blocks.dense(mat.shape[0])
    return _certificate(dense, mat.ravel(), g.ravel(), e_flat.shape[0], KKT_TOL)


def _support(mat: np.ndarray):
    """Eigendecomposition (w, v) of a state and the mask of its support,
    the eigenvalues above RANK_REL times the largest: the rank rule of
    both the certificate and the stiffness form."""
    w, v = np.linalg.eigh(mat)
    eps = RANK_REL * max(float(w[-1]), 0.0)
    return w, v, w > eps


def _certificate(
    lay: _Blocks, x: np.ndarray, g: np.ndarray, n_records: int, kkt_tol: float
) -> KKTReport:
    """The KKT report of the state and gradient laid out by lay, block by
    block: the commutator norm is the root of the blocks' squared norms,
    G's top eigenvalue the largest of the blocks', and the rank (by
    ``_support``'s rule, against the largest eigenvalue of all blocks) and
    the support deficit come from each block's own eigendecomposition."""
    lam = lay.pair(x, g)
    pops, g_pops = x[: lay.n1].real, g[: lay.n1].real
    rhos, gs = lay.mats(x), lay.mats(g)
    eigs = [np.linalg.eigh(r) for r in rhos]
    w = np.concatenate([pops, *(wk for wk, _ in eigs)])
    eps = RANK_REL * max(float(w.max()), 0.0)
    rank = int(np.count_nonzero(w > eps))
    # the 1 x 1 blocks commute with G, their eigenvalues are their entries,
    # and G on the support of a larger block is compressed to it
    comm, g_top = [], float(g_pops.max(initial=-math.inf))
    inner = float(g_pops[pops > eps].min(initial=math.inf))
    for r, q, (wk, v) in zip(rhos, gs, eigs):
        comm.append(np.linalg.norm(r @ q - q @ r))
        g_top = max(g_top, float(np.linalg.eigvalsh(q)[-1]))
        vr = v[:, wk > eps]
        on_support = np.linalg.eigvalsh(vr.conj().T @ q @ vr)
        inner = min(inner, float(on_support.min(initial=math.inf)))
    comm_norm = math.hypot(*comm)
    ascent = max(0.0, g_top - lam)
    support_deficit = math.inf if rank == 0 else max(0.0, lam - inner)
    residual = max(comm_norm, ascent, support_deficit)
    threshold = kkt_tol * max(n_records, 1)
    return KKTReport(
        residual=residual,
        commutator_norm=comm_norm,
        ascent_excess=ascent,
        support_deficit=support_deficit,
        # lambda_max(G) >= tr(rho G) = N, so the bound is never below zero
        likelihood_gap=max(0.0, n_records * math.log(g_top / n_records)),
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
    ratios.  The ascent runs on the blocks of the effects' joint exact
    nonzero pattern (module docstring): one eigendecomposition per block
    larger than 1 x 1 per projection, none for commuting photon-counting
    effects, and the certificate is taken block by block.  ``rho`` and
    ``gradient`` are full d x d matrices, exactly zero off the blocks.
    Iterations stop as soon as the stationarity certificate passes;
    hitting the iteration cap returns the best state found with
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
    lay = _Blocks.of(e)
    # row-major, as the dense stack is, so one block runs the same products
    e_blk = np.ascontiguousarray(e.reshape(n, -1)[:, lay.pos])
    # every effect has a positive trace, so f is finite at I/d
    x = (eye.astype(complex) / dim).ravel()[lay.pos]
    traces = lay.traces(e_blk, x)
    f = _f(traces, logc_sum)
    g = lay.gradient(e_blk, traces)
    history = [f]
    alpha = 1.0 / max(n, 1)
    report = _certificate(lay, x, g, n, kkt_tol)
    iters = 0
    while iters < max_iterations and not report.satisfied:
        iters += 1
        accepted = False
        step = alpha
        lam = report.lagrange_multiplier
        for _ in range(_MAX_BACKTRACKS):
            cand = lay.project(x + step * g)
            delta = cand - x
            # the rise is summed from tr(delta E_n) / t_n, below f's roundoff,
            # and both it and the gain drop the n tr(delta) roundoff term
            shift = float(delta[lay.diag].sum().real)
            gain = lay.pair(g, delta) - lam * shift
            ratio = lay.traces(e_blk, delta) / traces
            if (
                ratio.min() > -1.0
                and np.log1p(ratio).sum() - n * math.log1p(shift)
                >= _ARMIJO_C1 * gain
            ):
                traces_new = lay.traces(e_blk, cand)
                f_new = _f(traces_new, logc_sum)
                if math.isfinite(f_new):
                    accepted = True
                    break
            step *= _ARMIJO_SHRINK
        if not accepted:
            break
        g_new = lay.gradient(e_blk, traces_new)
        y = g - g_new
        sy = float(np.vdot(delta, y).real)
        if sy > 0.0:
            alpha = min(max(float(np.vdot(delta, delta).real) / sy, 1e-18), 1e18)
        else:
            alpha = min(step * 2.0, 1e18)
        x, f, g, traces = cand, f_new, g_new, traces_new
        history.append(f)
        report = _certificate(lay, x, g, n, kkt_tol)
    return TomographyResult(
        rho=DensityMatrix(lay.full(x)),
        log_likelihood=f,
        gradient=_hermitian(lay.full(g)),
        kkt=report,
        n_records=n,
        n_iterations=iters,
        certified=report.satisfied,
        f_history=tuple(history),
    )

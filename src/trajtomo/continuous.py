"""Diffusive continuous monitoring, discretized to first order in dt.

One time step of a diffusively monitored system with Hamiltonian H and
channels L_nu (efficiency eta_nu) is the completely positive map

    K_dy(rho) = M_dy rho M_dy^dag + sum_nu (1 - eta_nu) L_nu rho L_nu^dag dt,
    M_dy = exp(-i H dt) (I - dt sum_nu L_nu^dag L_nu)^(1/2)
             + sum_{monitored nu} sqrt(eta_nu) dy_nu L_nu,

whose deterministic factor equals I + (-i H - 1/2 sum L^dag L) dt to
first order in dt but keeps the step channel exactly trace preserving,

where dy_nu is the measured signal increment over the step.  The model
assigns the increments the probability density tr(K_dy(rho)) N(dy; 0, dt),
a Gaussian tilted by a nonnegative quadratic in dy; to first order in dt
this is dy_nu = sqrt(eta_nu) tr((L_nu + L_nu^dag) rho) dt + dW with dW of
variance dt.  ``sample_records`` draws from the exact tilted law so that
the simulator and the filter describe the same process at any step size.
tr(K_dy(rho)) is the likelihood density of the increment relative to pure
noise, so records compress to (effect, log scale) pairs exactly as in the
discrete-outcome case, and the same reconstruction stack applies
downstream.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StepSizeTooLarge
from .filtering import ContinuousRecord, RecordBatch, _initial_state
from .operators import (
    _check_hermitian, _coords, _integer, _matrices, _number, _real_map,
)

__all__ = [
    "Channel",
    "SMEModel",
    "ContinuousRecord",
    "lindblad_evolve",
]

_TRACE_BAND = 0.5  # |step trace - 1| beyond this means dt cannot resolve the dynamics


def _band_check(traces: np.ndarray, t: int, ids) -> None:
    dev = np.abs(traces - 1.0)
    worst = int(np.argmax(dev))
    if dev[worst] > _TRACE_BAND:
        raise StepSizeTooLarge(
            f"step {t} of record {ids[worst]} changed the trace by "
            f"{dev[worst]:.3f}; dt is too large for this model or the record "
            "does not belong to it"
        )


@dataclass(frozen=True)
class Channel:
    """One dissipation channel: jump operator and detection efficiency."""

    operator: np.ndarray
    efficiency: float = 0.0

    def __post_init__(self):
        op = np.array(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("channel operator must be a square matrix")
        if not np.isfinite(op).all():
            raise ValueError("channel operator must be finite")
        op.flags.writeable = False
        object.__setattr__(self, "operator", op)
        eta = _number(self.efficiency, "efficiency", "[0, 1]")
        object.__setattr__(self, "efficiency", eta)


@dataclass(frozen=True)
class SMEModel:
    """Hamiltonian, channels and time grid of a diffusive monitoring run.

    Answers the record passes and the sampler of ``trajtomo.filtering``
    for signal records through the same private members as
    ``KrausFamily``: ``_read``; ``_expansion``, the one step map
    K_dy = sum_m phi_m(dy) R_m of ``_superoperators`` at every step;
    ``_combine``, which weights the blocks R_m by phi(dy); ``_ops``; and
    ``_sampler``, which draws the increments from the tilted Gaussian
    that those weights give.  A signal step's trace must stay within
    ``_TRACE_BAND`` of one (``_trace_check``).
    """

    _record_type = "continuous"  # the record archives this model reads
    _trace_check = staticmethod(_band_check)

    hamiltonian: np.ndarray
    channels: tuple[Channel, ...]
    dt: float
    n_steps: int

    def __post_init__(self):
        h = np.array(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("hamiltonian must be a square matrix")
        if not np.isfinite(h).all():
            raise ValueError("hamiltonian must be finite")
        _check_hermitian(h, "hamiltonian")
        h.flags.writeable = False
        object.__setattr__(self, "hamiltonian", h)
        chans = tuple(self.channels)
        for c in chans:
            if not isinstance(c, Channel):
                raise TypeError("channels must be Channel instances")
            if c.operator.shape != h.shape:
                raise ValueError("channel dimension does not match hamiltonian")
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "dt", _number(self.dt, "dt", "(0, inf]"))
        object.__setattr__(self, "n_steps", _integer(self.n_steps, "n_steps", 1))
        gen = -1j * h - 0.5 * self._damping()
        speed = float(np.linalg.norm(gen, 2)) * self.dt
        if speed > 0.1:
            warnings.warn(
                f"dt resolves the dynamics poorly (generator norm * dt = "
                f"{speed:.3f}); first-order stepping will be inaccurate",
                RuntimeWarning,
                stacklevel=2,
            )

    def _damping(self) -> np.ndarray:
        d = self.hamiltonian.shape[0]
        out = np.zeros((d, d), dtype=complex)
        for c in self.channels:
            out += c.operator.conj().T @ c.operator
        return out

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def monitored(self) -> tuple[int, ...]:
        return tuple(
            i for i, c in enumerate(self.channels) if c.efficiency > 0.0
        )

    def _read(self, batch: RecordBatch):
        """The step-map inputs of a RecordBatch, which are its signal
        increments, and its records' problems.

        A grid step other than the model's, or a channel count other than
        its monitored count, is shared by the whole batch and so is one
        problem, named after the first record; otherwise a record may have
        more steps than the model defines.  Problems come as the exceptions
        a pass raises, at most one per record, in record order.
        """
        if not len(batch):
            return batch.data, []
        if batch.dt is None:
            raise TypeError("a signal model needs signal records, not outcomes")
        ids, lengths = batch.record_ids, batch.lengths
        n_mon, k = len(self.monitored), batch.data.shape[2]
        if not math.isclose(batch.dt, self.dt, rel_tol=1e-9, abs_tol=0.0):
            why = f"was taken on a {batch.dt} s grid but the model steps by {self.dt} s"
        elif k != n_mon:
            why = f"carries {k} signal channels but the model monitors {n_mon}"
        else:
            return batch.data, [ValueError(
                f"record {ids[n]} has {lengths[n]} steps but the model defines "
                f"{self.n_steps}"
            ) for n in np.flatnonzero(lengths > self.n_steps)]
        return batch.data, [ValueError(f"record {ids[0]} {why}")]

    def _expansion(self, *, adjoint: bool):
        """The step map as ``trajtomo.filtering`` runs it: every step is
        the one distinct step, whose (d^2, M d^2) map is that of
        ``_superoperators`` in the pass direction."""
        right, _ = _superoperators(self, adjoint=adjoint)
        return np.zeros(self.n_steps, np.intp), [right]

    def _combine(self, dy, blocks):
        """Rows with signal increments dy (n, n_monitored): their (n, M,
        live) ``blocks`` weighted by phi(dy) of ``_superoperators``."""
        pairs = self._pairs
        phi = np.concatenate(
            [np.ones((len(dy), 1)), dy, dy[:, pairs[:, 0]] * dy[:, pairs[:, 1]]], axis=1
        )
        return np.matmul(phi[:, None, :], blocks)[:, 0]

    def _ops(self, t: int, dy) -> tuple[np.ndarray, ...]:
        """The Kraus operators (M_dy, *undetected residue) of a step with
        signal increments dy, the same at every step t in [0, n_steps),
        where M_dy = base + sum_v dy_v stack_v from ``_build_step_ops``'
        first two parts."""
        _integer(t, "step index", 0, self.n_steps)
        base, stack, resid = self._step_ops
        dy = np.asarray(dy, dtype=float)
        if dy.shape != stack.shape[:1]:
            raise ValueError(f"expected {stack.shape[0]} signal increments")
        return (base + np.einsum("v,vij->ij", dy, stack) if len(dy) else base, *resid)

    def _sampler(self, rng: np.random.Generator, n_records: int):
        """The increment draw of ``filtering.sample_records``.

        Returns ``draw(t, coeffs)``, which draws every record's step-t
        increments from the exact one-step law whose density relative to
        N(0, dt) is sum_m phi_m(dy) coeffs[n, m], stores them in the
        returned (n_records, n_steps, n_monitored) signal array and returns
        them; and the RecordBatch keywords.
        """
        pairs = self._pairs
        signals = np.empty((n_records, self.n_steps, len(self.monitored)))

        def draw(t, coeffs):
            if len(pairs):
                signals[:, t] = _draw_increments(rng, coeffs, pairs, self.dt)
            return signals[:, t]

        return draw, signals, {"dt": self.dt}

    @cached_property
    def _pairs(self) -> np.ndarray:
        """The read-only rows (v, w), v <= w in row-major order, of the
        monitored channels whose increment products dy_v dy_w weight the
        pair terms of ``_superoperators``."""
        pairs = np.stack(np.triu_indices(len(self.monitored)), axis=1)
        pairs.flags.writeable = False
        return pairs

    @cached_property
    def _step_ops(self):
        """``_build_step_ops`` of the model, built on first use and read
        only; a model whose dt is too large for them is still constructed."""
        base, stack, resid = _build_step_ops(self)
        for op in (base, stack, *resid):
            op.flags.writeable = False
        return base, stack, resid


def _build_step_ops(model: SMEModel):
    """(deterministic part of M, stacked sqrt(eta) L for monitored channels,
    Kraus operators of the undetected residue).

    The deterministic part is exp(-i H dt) (I - dt sum L^dag L)^(1/2),
    which agrees with I + (-i H - 1/2 sum L^dag L) dt to first order but
    makes the one-step channel trace preserving exactly, so the signal
    densities integrate to one for every state.  Without that, maximum
    likelihood over long records drifts toward states whose leftover
    normalization defect is largest.  Both factors are taken exactly from
    the eigendecompositions of the Hermitian H and sum L^dag L; for H = 0
    the unitary factor is exactly the identity.
    """
    d = model.dim
    damp = model._damping()
    vals, vecs = np.linalg.eigh(damp)
    scaled = 1.0 - model.dt * vals
    if scaled.min() < 0.0:
        raise StepSizeTooLarge(
            "dt exceeds the inverse damping rate; the one-step Kraus "
            "factor is not defined"
        )
    root = (vecs * np.sqrt(scaled)) @ vecs.conj().T
    h = model.hamiltonian
    energies, modes = np.linalg.eigh((h + h.conj().T) / 2.0)
    base = ((modes * np.exp(-1j * model.dt * energies)) @ modes.conj().T) @ root
    mon = model.monitored
    if mon:
        stack = np.stack(
            [math.sqrt(model.channels[i].efficiency) * model.channels[i].operator
             for i in mon]
        )
    else:
        stack = np.zeros((0, d, d), dtype=complex)
    resid = [
        math.sqrt((1.0 - c.efficiency) * model.dt) * c.operator
        for c in model.channels
        if c.efficiency < 1.0
    ]
    return base, stack, resid


def _superoperators(model: SMEModel, *, adjoint: bool):
    """Right factor of the expanded step map, and the signal pairs it uses.

    With row-major vec(A X B) = kron(A, B^T) vec(X), the step map is

        vec(K_dy(X)) = sum_m phi_m(dy) A_m vec(X),
        phi = (1, dy_v for each v, dy_v dy_w for each v <= w),

    A_0 = B (x) conj(B) + sum_k R_k (x) conj(R_k) from the deterministic
    part B and the undetected residue R_k, A_v = S_v (x) conj(B)
    + B (x) conj(S_v) from the monitored operators S_v, and the pair
    terms S_v (x) conj(S_w) (plus the swapped term when v != w).  Each
    A_m preserves Hermiticity, so it acts on the real coordinates of
    ``operators._basis`` as a real map R_m, and K*_dy acts as R_m^T,
    since phi is real.  Coordinate rows x times the returned
    (d^2, M d^2) real matrix give every x @ R_m^T (x @ R_m in the
    adjoint direction) in one product.
    """
    base, stack, resid = model._step_ops
    terms = [np.kron(base, base.conj()) + sum(np.kron(k, k.conj()) for k in resid)]
    terms += [np.kron(s, base.conj()) + np.kron(base, s.conj()) for s in stack]
    for v, w in model._pairs:
        term = np.kron(stack[v], stack[w].conj())
        if v != w:
            term = term + np.kron(stack[w], stack[v].conj())
        terms.append(term)
    maps = [_real_map(a) for a in terms]
    right = np.concatenate([r if adjoint else r.T for r in maps], axis=1)
    return right, model._pairs


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)

# (numerator, denominator) coefficients of rational approximations, from
# the highest power down.  Cody (Math. Comp. 23, 631 (1969)), for y >= 0:
# erf(y) = y R(y^2) up to y = 0.46875, erfc(y) = exp(-y^2) R(y) up to 4
# and erfc(y) = exp(-y^2) (1/sqrt(pi) - w R(w)) / y, w = 1/y^2, beyond.
_ERF = (
    (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
     3.77485237685302021e2, 3.20937758913846947e3),
    (1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
     2.84423683343917062e3),
)
_ERFC = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
     6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
     1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
    (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
     1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
     3.43936767414372164e3, 1.23033935480374942e3),
)
_ERFC_FAR = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)


def _rational(coeffs, x):
    """R(x) of a (numerator, denominator) pair of equally long tuples."""
    num, den = coeffs
    p, q = num[0] * x, den[0] * x
    for a, b in zip(num[1:-1], den[1:-1]):
        p += a
        p *= x
        q += b
        q *= x
    p += num[-1]
    q += den[-1]
    p /= q
    return p


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a finite 1-d array, from Cody's erf and erfc.

    Both rational branches run on every lane and np.where picks one; the
    asymptotic erfc runs only on the lanes with |x| / sqrt(2) > 4.  The
    factor exp(-x^2 / 2) is taken plainly, as SciPy's ndtr takes it, so
    the left tail carries the same relative error of about x^2 eps / 2
    (4.5e-15 at x = -9, the farthest ``_tilted_normal_ppf`` looks).
    """
    z = x * math.sqrt(0.5)
    y = np.abs(z)
    y2 = y * y
    central = _rational(_ERF, y2)
    central *= 0.5 * z
    central += 0.5
    half = _rational(_ERFC, y)
    far = y > 4.0
    if far.any():
        yf = y[far]
        w = 1.0 / (yf * yf)
        half[far] = (1.0 / math.sqrt(math.pi) - w * _rational(_ERFC_FAR, w)) / yf
    half *= 0.5 * np.exp(-y2)
    return np.where(y <= 0.46875, central, np.where(x < 0.0, half, 1.0 - half))


def _tilted_normal_ppf(u, a, b, c):
    """Quantiles of the density (a + b x + c x^2) phi(x) / (a + c).

    phi is the standard normal density, a and c are nonnegative and the
    quadratic is nonnegative wherever phi carries mass, so the CDF

        F(x) = [a Phi(x) - b phi(x) + c (Phi(x) - x phi(x))] / (a + c)

    is monotone and available in closed form, Phi being ``_ndtr``.
    Inverted by bracketed Newton iteration on [-9, 9]: the bracket
    shrinks on the sign of F(x) - u, and a step that leaves it or is not
    finite bisects instead.  Newton starts from the untilted quantile of
    Abramowitz & Stegun 26.2.23, a rational form in sqrt(-2 log p) for
    the smaller tail p = min(u, 1 - u) with error below 4.5e-4; a closer
    seed only saves passes, since Newton converges on its own.
    F(x) - u is taken on the smaller tail (1 - u minus the mass above x
    when x > 0), so it keeps its relative accuracy as u approaches 1.  A
    lane stops, keeping its current x, once |F(x) - u| <= 1e-15 or the
    Newton step or the bracket is within 4 eps max(1, |x|); in the tails
    rounding noise over a tiny density would otherwise keep Newton
    moving.  Only the lanes still running are iterated, for at most 60
    passes.
    """
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    t = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
    seed = t - (2.515517 + (0.802853 + 0.010328 * t) * t) / (
        1.0 + (1.432788 + (0.189269 + 0.001308 * t) * t) * t
    )
    out = np.clip(np.copysign(seed, u - 0.5), -9.0, 9.0)
    lane = np.arange(u.size)
    x, norm = out.copy(), a + c
    lo = np.full(u.shape, -9.0)
    hi = np.full(u.shape, 9.0)
    for _ in range(60):
        phi = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        up, size = x > 0.0, np.abs(x)
        tail = _ndtr(-size)
        mass = (a * tail + np.where(up, b, -b) * phi + c * (tail + size * phi)) / norm
        err = np.where(up, (1.0 - u) - mass, mass - u)
        hi = np.where(err > 0.0, np.minimum(hi, x), hi)
        lo = np.where(err <= 0.0, np.maximum(lo, x), lo)
        dens = (a + (b + c * x) * x) * phi / norm
        step = np.divide(
            err, dens, out=np.full_like(err, np.inf), where=dens > 1e-300
        )
        tol = 4.0 * _EPS * np.maximum(1.0, size)
        done = (np.abs(err) <= 1e-15) | (np.abs(step) <= tol) | (hi - lo <= tol)
        out[lane[done]] = x[done]
        run = ~done
        trial = x[run] - step[run]
        lane, lo, hi, u, a, b, c, norm = (
            v[run] for v in (lane, lo, hi, u, a, b, c, norm)
        )
        stuck = (trial <= lo) | (trial >= hi) | ~np.isfinite(trial)
        x = np.where(stuck, 0.5 * (lo + hi), trial)
        if not lane.size:
            break
    out[lane] = x
    return out


def _draw_increments(rng, coeffs, pairs, dt):
    """Sample signal increments from the exact one-step outcome law.

    ``coeffs`` holds each record's (a, b_v, p_j) of the one-step density
    (a + b . dy + sum_j p_j dy_v dy_w) N(dy; 0, dt I), (v, w) = ``pairs[j]``,
    one per term of ``_superoperators``.  In unit-variance coordinates
    x = dy / sqrt(dt) the tilt is q(x) = a + b' . x + x . C' x, with
    b' = sqrt(dt) b and C' = dt C the symmetric part (C_vv = p,
    C_vw = C_wv = p / 2); it is nonnegative, so the diagonal of C' is too
    and is clipped at zero against roundoff.  Integrating the Gaussian
    over the later coordinates removes their cross and linear terms, so
    by the chain rule x_i given x_0 .. x_(i-1) is the tilted Gaussian of
    ``_tilted_normal_ppf`` with constant q(x_0 .. x_(i-1)) +
    sum_(j>i) C'_jj, linear coefficient b'_i + 2 sum_(j<i) C'_ij x_j and
    quadratic coefficient C'_ii.  Consumes exactly one uniform per
    coordinate per record, so the draw is reproducible by seed.
    """
    n, k = coeffs.shape[0], coeffs.shape[1] - 1 - len(pairs)
    a, b, p = coeffs[:, 0], coeffs[:, 1 : k + 1], coeffs[:, k + 1 :] * (dt / 2.0)
    quad = np.zeros((n, k, k))
    quad[:, pairs[:, 0], pairs[:, 1]] = p
    quad[:, pairs[:, 1], pairs[:, 0]] += p
    diag = np.clip(np.diagonal(quad, axis1=1, axis2=2), 0.0, None)
    blin = b * math.sqrt(dt)
    acc = a
    coords = np.empty((n, k))
    for i in range(k):
        lin = blin[:, i] + 2.0 * np.einsum("nj,nj->n", quad[:, i, :i], coords[:, :i])
        xi = _tilted_normal_ppf(
            rng.random(n), acc + diag[:, i + 1:].sum(axis=1), lin, diag[:, i]
        )
        coords[:, i] = xi
        acc = acc + (lin + diag[:, i] * xi) * xi
    return math.sqrt(dt) * coords


def lindblad_evolve(model: SMEModel, rho0, n_steps: int | None = None) -> np.ndarray:
    """Unconditional evolution, shape (n_steps + 1, dim, dim): the
    ensemble mean of the trajectories ``sample_records`` draws.

    Each step is the step map K_dy of ``_superoperators`` averaged over
    the reference law N(0, dt) of the increments, E[dy_v] = 0 and
    E[dy_v dy_w] = dt delta_vw, so the mean step is A_0 + dt sum_v A_vv.
    It is completely positive and trace preserving at any dt that the
    step operators allow; a larger dt raises StepSizeTooLarge from
    ``_build_step_ops``.
    """
    total = model.n_steps if n_steps is None else _integer(n_steps, "n_steps", 1)
    rows = [_coords(_initial_state(model, rho0).matrix)]
    right, pairs = _superoperators(model, adjoint=False)
    squares = model.dt * (pairs[:, 0] == pairs[:, 1])  # E[dy_v dy_w]
    phi = np.concatenate([[1.0], np.zeros(len(model.monitored)), squares])
    mean = phi @ right.reshape(len(right), -1, len(right))
    for _ in range(total):
        rows.append(rows[-1] @ mean)
    return _matrices(np.stack(rows))

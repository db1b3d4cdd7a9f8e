"""Ready-made measurement models.

Two concrete setups are packaged here, matching the regimes the rest of
the library is exercised on:

* a superconducting qubit whose spontaneous emission is monitored by
  heterodyne detection (two noisy quadrature signals plus undetected
  dephasing), built as an SMEModel;
* a microwave cavity probed by a stream of dispersive atoms that read
  out the photon number without exchanging energy, interleaved with
  thermal relaxation, built as a discrete KrausFamily.

Plus small utilities: POVM shots as single-step families, exact
thermal-relaxation Kraus decompositions, and a photon-injection channel
for jump-detection studies.
"""
from __future__ import annotations

import math

import numpy as np

from .config import KRAUS_TRACE_TOL, PSD_TOL
from .continuous import Channel, SMEModel
from .errors import IncompletePOVM
from .filtering import RecordBatch
from .operators import (
    DensityMatrix, KrausFamily, _check_hermitian, _closure, _integer, _number,
    as_matrix,
)
from .qubit import SIGMA_X, SIGMA_Y, SIGMA_Z

__all__ = [
    "build_fluorescence_model",
    "quadrature_estimates",
    "povm_family",
    "number_operator",
    "thermal_state",
    "mean_photon",
    "thermal_relaxation_kraus",
    "injection_channel",
    "thermal_decay_curve",
    "build_qnd_family",
]


# ---------------------------------------------------------------------------
# heterodyne fluorescence monitoring of a qubit
# ---------------------------------------------------------------------------


def build_fluorescence_model(
    *,
    t1: float = 4.15e-6,
    tphi: float = 35e-6,
    dt: float = 200e-9,
    n_steps: int = 46,
    efficiency: float = 0.24,
) -> SMEModel:
    """Heterodyne monitoring of qubit fluorescence.

    Basis index 0 is the excited state (sz = +1), so relaxation pulls the
    z component toward -1 at rate 1/t1 and shrinks the transverse
    components at rate 1/(2 t1) + 1/tphi.  The emission line is split
    into two quadrature channels L and iL, each detected with the given
    efficiency; pure dephasing is never detected.  There is no drive, so
    the Hamiltonian is zero in the rotating frame.

    Signal law: E[dy_1] = sqrt(efficiency / (2 t1)) * x(t) * dt (dy_2
    likewise with y), on white noise of variance dt, where x(t) and y(t)
    decay at the transverse rate 1/t2 = 1/(2 t1) + 1/tphi.  So
    sqrt(2 t1 / efficiency) * mean(dy_1) / dt estimates x averaged over
    the window, not x(0); at the defaults that average is about 0.54 x(0).
    """
    t1, tphi = _number(t1, "t1", "(0, inf]"), _number(tphi, "tphi", "(0, inf]")
    lower = math.sqrt(1.0 / (2.0 * t1)) * (SIGMA_X - 1j * SIGMA_Y) / 2.0
    dephase = math.sqrt(1.0 / (2.0 * tphi)) * SIGMA_Z
    return SMEModel(
        hamiltonian=np.zeros((2, 2)),
        channels=(
            Channel(lower, efficiency),
            Channel(1j * lower, efficiency),
            Channel(dephase, 0.0),
        ),
        dt=dt,
        n_steps=n_steps,
    )


def quadrature_estimates(
    records, *, t1: float, efficiency: float, dt: float
) -> np.ndarray:
    """Raw-signal estimate of (x, y) from fluorescence records, a
    RecordBatch or ContinuousRecord views: the mean increment over every
    step of every record, rescaled."""
    t1, dt = _number(t1, "t1", "(0, inf]"), _number(dt, "dt", "(0, inf]")
    efficiency = _number(efficiency, "efficiency", "(0, 1]")
    batch = RecordBatch.from_records(records)
    if batch.dt is None:
        raise TypeError("quadrature estimates need signal records, not outcomes")
    inside = np.arange(batch.data.shape[1]) < batch.lengths[:, None]
    return math.sqrt(2.0 * t1 / efficiency) * batch.data[inside].mean(axis=0) / dt


# ---------------------------------------------------------------------------
# POVM shots
# ---------------------------------------------------------------------------


def povm_family(elements: dict[str, np.ndarray], *, n_steps: int = 1) -> KrausFamily:
    """A measurement family from POVM elements, one shot per step.

    Each element F must be Hermitian and positive semidefinite, and the set
    must resolve the identity; the Kraus operator used per outcome is the
    positive square root of F.
    """
    mats = {y: np.asarray(f, dtype=complex) for y, f in elements.items()}
    dims = {f.shape for f in mats.values()}
    if len(dims) != 1 or any(len(s) != 2 or s[0] != s[1] for s in dims):
        raise ValueError("POVM elements must be square matrices of equal size")
    d = next(iter(dims))[0]
    total = sum(mats.values())
    if float(np.abs(total - np.eye(d)).max()) > KRAUS_TRACE_TOL:
        raise IncompletePOVM(
            "POVM elements do not resolve the identity "
            f"(worst deviation {float(np.abs(total - np.eye(d)).max()):.3e})"
        )
    step = {}
    for y, f in mats.items():
        _check_hermitian(f, f"POVM element {y!r}")
        f = (f + f.conj().T) / 2.0
        w, v = np.linalg.eigh(f)
        if w[0] < -PSD_TOL:
            raise ValueError(f"POVM element {y!r} has eigenvalue {w[0]:.3e}")
        step[y] = [(v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T]
    return KrausFamily.repeated(d, step, n_steps)


# ---------------------------------------------------------------------------
# cavity photon counting by dispersive probe atoms
# ---------------------------------------------------------------------------


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(_integer(dim, "dim", 1), dtype=float)).astype(complex)


def thermal_state(dim: int, n_bar: float) -> DensityMatrix:
    """Truncated thermal state with untruncated mean occupation n_bar."""
    dim, n_bar = _integer(dim, "dim", 1), _number(n_bar, "n_bar", "[0, inf)")
    if n_bar == 0:
        p = np.zeros(dim)
        p[0] = 1.0
    else:
        ratio = n_bar / (1.0 + n_bar)
        p = ratio ** np.arange(dim)
        p /= p.sum()
    return DensityMatrix(np.diag(p))


def mean_photon(rho) -> float:
    mat = as_matrix(rho)
    return float(np.einsum("ii,i->", mat, np.arange(mat.shape[0])).real)


def _lowering(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def _lindblad_superop(dim: int, ops) -> np.ndarray:
    eye = np.eye(dim)
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for l in ops:
        ll = l.conj().T @ l
        s += np.kron(l, l.conj())
        s -= 0.5 * (np.kron(ll, eye) + np.kron(eye, ll.T))
    return s


# Pade-13 numerator coefficients of exp; exp(A) = (V - U)^-1 (V + U) with U
# the odd and V the even part, accurate to double precision for ||A||_1 up
# to _THETA_13 (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA_13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a finite square matrix by Pade-13 scaling and squaring.

    One fixed order: a is scaled by 2^-s, s = ceil(log2(||a||_1 /
    theta_13)), and the approximant squared s times.  Every step is a
    product, a sum or one LU solve, so entries that the block structure
    of a keeps zero stay exactly zero.
    """
    b = _PADE_13
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / _THETA_13))) if norm > 0 else 0
    a = a / 2.0**s
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _thermal_channel(dim: int, down: float, up: float, duration: float) -> np.ndarray:
    """Superoperator of thermal contact for ``duration``: photons leave at
    rate ``down`` and enter at rate ``up``, truncated at ``dim`` levels."""
    a = _lowering(dim)
    ops = [math.sqrt(down) * a, math.sqrt(up) * a.conj().T]
    return _expm(_lindblad_superop(dim, ops) * duration)


def _superop_to_kraus(sup: np.ndarray, dim: int) -> list[np.ndarray]:
    """Kraus decomposition of a completely positive superoperator.

    The Choi matrix is eigendecomposed one connected block of its exact
    nonzero pattern at a time, so each Kraus operator is supported on one
    block and zeros that the channel's symmetry fixes stay exact: every
    operator of a phase-covariant channel shifts the level by one amount.
    """
    n = dim * dim
    choi = sup.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3).reshape(n, n)
    choi = (choi + choi.conj().T) / 2.0
    # the Hermitian Choi matrix links indices both ways, so the closure of
    # one index is its connected block; blocks come in order of smallest index
    linked, left, blocks = choi != 0, np.ones(n, bool), []
    for k in range(n):
        if left[k]:
            block = _closure(linked, np.arange(n) == k)
            left &= ~block
            blocks.append(np.flatnonzero(block))
    eigs = [np.linalg.eigh(choi[np.ix_(idx, idx)]) for idx in blocks]
    cut = 1e-12 * max(max(float(w[-1]) for w, _ in eigs), 0.0)
    ops = []
    for idx, (w, v) in zip(blocks, eigs):
        for k in np.flatnonzero(w > cut):
            op = np.zeros(n, dtype=complex)
            op[idx] = math.sqrt(float(w[k])) * v[:, k]
            ops.append(op.reshape(dim, dim))
    total = sum(k.conj().T @ k for k in ops)
    if float(np.abs(total - np.eye(dim)).max()) > KRAUS_TRACE_TOL:
        raise ValueError("Kraus decomposition failed to preserve the trace")
    return ops


def thermal_relaxation_kraus(
    dim: int,
    duration: float,
    *,
    t_cavity: float,
    n_bath: float,
) -> list[np.ndarray]:
    """Exact Kraus operators of thermal contact for the given duration.

    Photons leak out at rate (1 + n_bath)/t_cavity and in at rate
    n_bath/t_cavity, both truncated at the space dimension.  The channel
    is the exact exponential of this generator, so the decomposition is
    trace preserving to machine precision regardless of duration.
    """
    dim, duration = _integer(dim, "dim", 1), _number(duration, "duration", "[0, inf)")
    t_cavity = _number(t_cavity, "t_cavity", "(0, inf]")
    n_bath = _number(n_bath, "n_bath", "[0, inf)")
    sup = _thermal_channel(dim, (1.0 + n_bath) / t_cavity, n_bath / t_cavity, duration)
    return _superop_to_kraus(sup, dim)


def injection_channel(
    dim: int,
    *,
    n_hot: float = 4.0,
    strength: float = 0.3133,
) -> np.ndarray:
    """Superoperator of a short hot-bath pulse that injects photons.

    Contact with a bath of mean occupation n_hot for dimensionless
    duration ``strength`` pulls the mean photon number toward n_hot:
    starting near vacuum the defaults land at about 1.1 photons.  Being a
    fixed completely positive trace-preserving map, it commutes with
    ensemble averaging, so reference curves stay exact.
    """
    dim, n_hot = _integer(dim, "dim", 1), _number(n_hot, "n_hot", "[0, inf)")
    strength = _number(strength, "strength", "[0, inf)")
    sup = _thermal_channel(dim, 1.0 + n_hot, n_hot, strength)
    _superop_to_kraus(sup, dim)  # validates complete positivity + trace
    return sup


def thermal_decay_curve(
    n_start: float, times, *, t_cavity: float, n_bath: float
) -> np.ndarray:
    """Mean photon number n_bath + (n_start - n_bath) exp(-t / t_cavity)."""
    t = np.asarray(times, dtype=float)
    return n_bath + (n_start - n_bath) * np.exp(-t / t_cavity)


def build_qnd_family(
    n_steps: int,
    *,
    n_max: int = 7,
    t_cavity: float = 65e-3,
    n_bath: float = 0.06,
    step_time: float = 86e-6,
    phase_per_photon: float = math.pi / 4,
    phase_offsets: tuple[float, ...] = (
        0.0,
        math.pi / 4,
        math.pi / 2,
        3 * math.pi / 4,
    ),
    readout_error: float = 0.05,
    detection_efficiency: float = 0.4,
) -> KrausFamily:
    """Photon-number readout by a stream of dispersive probe atoms.

    Each step first lets the cavity relax thermally for step_time, then
    sends one probe atom.  With probability detection_efficiency the atom
    is detected in 'g' or 'e'; the ground probability given n photons is

        P_g(n) = (1 - readout_error) * c + readout_error * (1 - c),
        c = (1 + cos(offset + n * phase_per_photon)) / 2,

    with the interferometer offset cycling through phase_offsets so that
    all photon numbers up to n_max become distinguishable.  Undetected
    atoms produce the outcome 'no' and leave the cavity untouched beyond
    the thermal relaxation.
    """
    n_steps = _integer(n_steps, "n_steps", 1)
    detection_efficiency = _number(
        detection_efficiency, "detection_efficiency", "(0, 1]"
    )
    readout_error = _number(readout_error, "readout_error", "[0, 0.5]")
    step_time = _number(step_time, "step_time", "[0, inf)")
    phase_per_photon = _number(phase_per_photon, "phase_per_photon")
    phase_offsets = [_number(v, "phase_offsets entry") for v in phase_offsets]
    if not len(phase_offsets):
        raise ValueError("phase_offsets must hold at least one offset")
    dim = _integer(n_max, "n_max", 1) + 1
    relax = thermal_relaxation_kraus(
        dim, step_time, t_cavity=t_cavity, n_bath=n_bath
    )
    n = np.arange(dim)
    steps = []
    for offset in phase_offsets:
        c = 0.5 * (1.0 + np.cos(offset + n * phase_per_photon))
        p_g = (1.0 - readout_error) * c + readout_error * (1.0 - c)
        m_g = np.diag(np.sqrt(detection_efficiency * p_g)).astype(complex)
        m_e = np.diag(np.sqrt(detection_efficiency * (1.0 - p_g))).astype(complex)
        m_no = math.sqrt(1.0 - detection_efficiency) * np.eye(dim, dtype=complex)
        steps.append(
            {
                "g": [m_g @ k for k in relax],
                "e": [m_e @ k for k in relax],
                "no": [m_no @ k for k in relax],
            }
        )
    sequence = [steps[t % len(steps)] for t in range(n_steps)]
    return KrausFamily(dim, sequence)

"""Closed-form qubit shortcuts in Bloch coordinates.

A qubit state is rho = (I + v . sigma) / 2 and a trace-one effect is
E = (I + e . sigma) / 2, so every record likelihood term collapses to
log((1 + v . e) / 2).  Everything the general machinery does with d x d
matrices reduces to three-vector algebra here, which makes this module
both a fast path and an independent check of the operator-space code.

Observables are passed as Bloch component vectors a, meaning the
operator A = a1 sx + a2 sy + a3 sz, whose mean is v . a.  If you work
with half-weighted combinations A = (a . sigma) / 2, divide variances
from this module by 4.  The Bloch gradient g = sum_n e_n / (1 + v . e_n)
that ``variance_bloch`` forms is half the Bloch image of the
operator-space gradient, and its boundary multiplier v . g is half the
record count at a pure maximizer for the same reason.  Identical
variances still come out of both paths because the factor cancels
between the stiffness form and the coefficients.
"""
from __future__ import annotations

import numpy as np

from .config import PSD_TOL
from .confidence import _pinv_quadratic
from .errors import DegenerateTrace
from .operators import DensityMatrix, as_matrix
from .filtering import _stack_effects

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "to_bloch",
    "from_bloch",
    "effects_to_bloch",
    "variance_bloch",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_BOUNDARY_GAP = 1e-6  # distance to the Bloch sphere below which the pure branch runs


def to_bloch(rho) -> np.ndarray:
    mat = as_matrix(rho)
    if mat.shape != (2, 2):
        raise ValueError("Bloch coordinates are defined for qubits only")
    return np.array([np.einsum("ij,ji->", s, mat).real for s in PAULIS])


def from_bloch(v) -> DensityMatrix:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("expected three Bloch components")
    mat = (np.eye(2) + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z) / 2.0
    return DensityMatrix(mat)


def effects_to_bloch(effects) -> np.ndarray:
    """Bloch vectors of a sequence of trace-one qubit effects, shape (N, 3)."""
    e, _ = _stack_effects(effects)
    if e.shape[0] == 0:
        return np.zeros((0, 3))
    if e.shape[1] != 2:
        raise ValueError("Bloch coordinates are defined for qubits only")
    return np.einsum("kij,nji->nk", np.stack(PAULIS), e).real


def variance_bloch(v, bloch_effects, observable) -> float:
    """Squared error bar of v . a at a Bloch-coordinate maximizer.

    In the interior the stiffness is the 3 x 3 negative Hessian
    sum_n e e^T / (1 + v . e)^2.  Within _BOUNDARY_GAP of the sphere the
    pure-state branch runs instead: effects and observable are projected
    transverse to the normalized v, and the positivity boundary adds
    (v . g) on the transverse plane.  Radial fluctuations are higher
    order there and drop out, exactly as in the operator-space path.
    """
    v = np.asarray(v, dtype=float)
    e = np.asarray(bloch_effects, dtype=float)
    a = np.asarray(observable, dtype=float)
    if v.shape != (3,) or a.shape != (3,):
        raise ValueError("expected three Bloch components")
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError("bloch_effects must have shape (N, 3)")
    speed = float(np.linalg.norm(v))
    if speed > 1.0 + PSD_TOL:
        raise ValueError("Bloch vector lies outside the sphere")
    if 1.0 - speed >= _BOUNDARY_GAP:
        denom = 1.0 + e @ v
        if denom.min() <= 0.0:
            raise DegenerateTrace("state assigns zero probability to some record")
        r = (e / denom[:, None]).T @ (e / denom[:, None])
        return _pinv_quadratic(*np.linalg.eigh(r), a)
    # pure branch: renormalize so the radial direction is annihilated exactly
    vhat = v / speed
    denom = 1.0 + e @ vhat
    if denom.min() <= 0.0:
        raise DegenerateTrace("state assigns zero probability to some record")
    lam = float(vhat @ (e / denom[:, None]).sum(axis=0))
    e_par = e - np.outer(e @ vhat, vhat)
    scaled = e_par / denom[:, None]
    r = scaled.T @ scaled + lam * (np.eye(3) - np.outer(vhat, vhat))
    u_par = a - (a @ vhat) * vhat
    return _pinv_quadratic(*np.linalg.eigh(r), u_par)

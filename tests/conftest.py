"""Shared random-instance builders for the test suites.

Everything is seeded explicitly at the call site so failures reproduce.
"""
import os

# One BLAS thread unless the environment says otherwise, set before NumPy
# loads: spinning BLAS threads on a busy core slow the small matrix
# products of the passes by orders of magnitude.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from trajtomo import SIGMA_X, SIGMA_Y, SIGMA_Z, KrausFamily


def random_density(rng, dim):
    """Full-rank random state (normalized Wishart draw)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_pure(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def random_traceless(rng, dim):
    h = random_hermitian(rng, dim)
    return h - np.trace(h).real / dim * np.eye(dim)


def random_step(rng, dim, n_outcomes=2, ops_per_outcome=1):
    """A random trace-preserving step.

    Raw Gaussian Kraus pieces are whitened by the inverse square root of
    their completeness sum, which enforces sum M*M = I exactly.
    """
    raw = {
        f"y{k}": [
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(ops_per_outcome)
        ]
        for k in range(n_outcomes)
    }
    total = sum(m.conj().T @ m for ops in raw.values() for m in ops)
    w, v = np.linalg.eigh(total)
    whiten = (v / np.sqrt(w)) @ v.conj().T
    return {y: [m @ whiten for m in ops] for y, ops in raw.items()}


def random_family(rng, dim, n_steps, n_outcomes=2, ops_per_outcome=1):
    return KrausFamily(
        dim,
        [random_step(rng, dim, n_outcomes, ops_per_outcome) for _ in range(n_steps)],
    )


def suffix(fam, start):
    """The KrausFamily of steps start, start + 1, ... of ``fam``."""
    return KrausFamily(fam.dim, [fam.step(t) for t in range(start, fam.n_steps)])


def pauli_combination(a):
    """The qubit operator a1 sx + a2 sy + a3 sz of Bloch components a."""
    a = np.asarray(a, dtype=float)
    assert a.shape == (3,), "expected three Bloch components"
    return a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z


def pauli_povm():
    """Six-outcome qubit POVM: each Pauli eigenprojector with weight 1/3."""
    out = {}
    for name, s in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)):
        out[f"{name}+"] = (np.eye(2) + s) / 6.0
        out[f"{name}-"] = (np.eye(2) - s) / 6.0
    return out


def kraus_to_superop(ops):
    """Row-major superoperator of rho -> sum_k K rho K^dag."""
    return sum(np.kron(k, np.conj(k)) for k in np.asarray(ops, dtype=complex))

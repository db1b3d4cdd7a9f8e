"""Hermitian-operator algebra for trajectory tomography.

Density matrices, measurement effects, time-indexed Kraus families,
tangent-space projections at a reconstructed state, and orthonormal
Hermitian operator bases.  The Frobenius inner product <A, B> = tr(A B)
(real for Hermitian arguments) is the metric everywhere.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    DimensionMismatch,
    InvalidProjector,
    UnknownOutcome,
)

__all__ = [
    "HermitianOperator",
    "DensityMatrix",
    "EffectMatrix",
    "KrausFamily",
    "frobenius",
    "apply_cp_map",
    "apply_adjoint_cp_map",
    "tangent_project",
    "project_to_density",
    "hermitian_basis",
]


def as_matrix(x) -> np.ndarray:
    """Return the complex matrix behind an operator-like object."""
    if isinstance(x, HermitianOperator):
        return x.matrix
    return np.asarray(x, dtype=complex)


def frobenius(a, b) -> float:
    """Real Frobenius pairing tr(A B) of two Hermitian operators."""
    return float(np.tensordot(as_matrix(a), as_matrix(b), axes=([0, 1], [1, 0])).real)


class HermitianOperator:
    """A square complex matrix, symmetrized to (M + M*)/2 at construction.

    Symmetrizing here quashes the Hermiticity drift that long products of
    Kraus maps would otherwise accumulate; downstream code may rely on
    ``matrix`` being exactly equal to its conjugate transpose up to the
    symmetrization roundoff.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        m += m.conj().T
        m *= 0.5
        m.setflags(write=False)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dim={self.dim})"


def _check_state(m: np.ndarray, what: str, tol: Tolerances) -> None:
    w = np.linalg.eigvalsh(m)
    if w[0] < -tol.psd:
        raise ValueError(
            f"{what} must be positive semidefinite; min eigenvalue {w[0]:.3e}"
        )
    tr = m.trace().real
    if abs(tr - 1.0) > tol.trace:
        raise ValueError(f"{what} must have unit trace; got {tr!r}")


class DensityMatrix(HermitianOperator):
    """Unit-trace positive semidefinite Hermitian matrix."""

    __slots__ = ()

    def __init__(self, matrix, *, tol: Tolerances = DEFAULT) -> None:
        super().__init__(matrix)
        _check_state(self.matrix, "a density matrix", tol)


class EffectMatrix(HermitianOperator):
    """Trace-one positive semidefinite matrix summarizing one record.

    Normalizing effects to unit trace keeps backward recursions scale free;
    the discarded scale lives in a separate log factor."""

    __slots__ = ()

    def __init__(self, matrix, *, tol: Tolerances = DEFAULT) -> None:
        super().__init__(matrix)
        _check_state(self.matrix, "an effect matrix", tol)


def _wrap_trusted(cls, matrix: np.ndarray):
    """Construct a state-like object whose batch was already validated."""
    obj = cls.__new__(cls)
    m = np.array(matrix, dtype=complex)
    m += m.conj().T
    m *= 0.5
    m.setflags(write=False)
    # bypass per-object validation; callers vouch for PSD and trace
    HermitianOperator.matrix.__set__(obj, m)
    return obj


class KrausFamily:
    """Time-indexed, outcome-indexed Kraus operators.

    Step ``t`` maps a state X to ``K_{y,t}(X) = sum_k M X M*`` once outcome
    ``y`` is known; summed over outcomes every step is trace preserving.
    Step dictionaries passed by identity more than once (periodic models)
    are validated and stored once.
    """

    __slots__ = ("dim", "_steps")

    def __init__(
        self,
        dim: int,
        steps: Sequence[Mapping[str, Iterable[np.ndarray]]],
        *,
        tol: Tolerances = DEFAULT,
    ) -> None:
        self.dim = int(dim)
        if self.dim < 2:
            raise DimensionMismatch("dimension must be at least 2")
        if len(steps) == 0:
            raise ValueError("a Kraus family needs at least one step")
        seen: dict[int, dict] = {}
        normalized = []
        for step in steps:
            cached = seen.get(id(step))
            if cached is not None:
                normalized.append(cached)
                continue
            out: dict[str, tuple[np.ndarray, ...]] = {}
            for label, ops in step.items():
                mats = []
                for op in ops:
                    m = np.asarray(op, dtype=complex)
                    if m.shape != (self.dim, self.dim):
                        raise DimensionMismatch(
                            f"Kraus operator for outcome {label!r} has shape "
                            f"{m.shape}, expected {(self.dim, self.dim)}"
                        )
                    m = m.copy()
                    m.setflags(write=False)
                    mats.append(m)
                if not mats:
                    raise ValueError(f"outcome {label!r} has no Kraus operators")
                out[str(label)] = tuple(mats)
            if not out:
                raise ValueError("a step needs at least one outcome")
            total = sum(
                m.conj().T @ m for ops in out.values() for m in ops
            )
            err = np.abs(total - np.eye(self.dim)).max()
            if err > tol.kraus_trace:
                raise ValueError(
                    f"Kraus step is not trace preserving; deviation {err:.3e}"
                )
            seen[id(step)] = out
            normalized.append(out)
        self._steps = tuple(normalized)

    @classmethod
    def repeated(
        cls,
        dim: int,
        step: Mapping[str, Iterable[np.ndarray]],
        n_steps: int,
        *,
        tol: Tolerances = DEFAULT,
    ) -> "KrausFamily":
        """A family applying the same step ``n_steps`` times."""
        return cls(dim, [step] * int(n_steps), tol=tol)

    @property
    def n_steps(self) -> int:
        return len(self._steps)

    def step(self, t: int) -> Mapping[str, tuple[np.ndarray, ...]]:
        return self._steps[t]

    def outcomes(self, t: int) -> tuple[str, ...]:
        return tuple(self._steps[t].keys())

    def operators(self, t: int, outcome: str) -> tuple[np.ndarray, ...]:
        try:
            return self._steps[t][str(outcome)]
        except KeyError:
            raise UnknownOutcome(
                f"outcome {outcome!r} is not defined at step {t}"
            ) from None

    def suffix(self, start: int) -> "KrausFamily":
        """The family restricted to steps ``start`` .. end (shares operators)."""
        if not 0 <= start < self.n_steps:
            raise ValueError(f"start index {start} outside [0, {self.n_steps})")
        out = KrausFamily.__new__(KrausFamily)
        out.dim = self.dim
        out._steps = self._steps[start:]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KrausFamily(dim={self.dim}, n_steps={self.n_steps})"


def apply_cp_map(family: KrausFamily, t: int, outcome: str, x) -> HermitianOperator:
    """Evaluate K_{y,t}(X) = sum_k M X M* for the given step and outcome."""
    mat = as_matrix(x)
    if mat.shape != (family.dim, family.dim):
        raise DimensionMismatch(
            f"operand has shape {mat.shape}, family dimension is {family.dim}"
        )
    ops = family.operators(t, outcome)
    acc = np.zeros_like(mat)
    for m in ops:
        acc += m @ mat @ m.conj().T
    return HermitianOperator(acc)


def apply_adjoint_cp_map(
    family: KrausFamily, t: int, outcome: str, x
) -> HermitianOperator:
    """Evaluate the Heisenberg-picture map K*_{y,t}(X) = sum_k M* X M."""
    mat = as_matrix(x)
    if mat.shape != (family.dim, family.dim):
        raise DimensionMismatch(
            f"operand has shape {mat.shape}, family dimension is {family.dim}"
        )
    ops = family.operators(t, outcome)
    acc = np.zeros_like(mat)
    for m in ops:
        acc += m.conj().T @ mat @ m
    return HermitianOperator(acc)


def _check_projector(p: np.ndarray, tol: Tolerances) -> None:
    if np.abs(p - p.conj().T).max() > tol.projector:
        raise InvalidProjector("projector is not Hermitian")
    if np.abs(p @ p - p).max() > tol.projector:
        raise InvalidProjector("projector is not idempotent")


def tangent_project(b, p, *, tol: Tolerances = DEFAULT) -> HermitianOperator:
    """Project B onto the tangent directions at a state with range projector P.

    The image is the space of Hermitian B with tr(B P) = 0 and vanishing
    (I-P) B (I-P) corner: directions along which a state of that rank can
    move without losing trace normalization or positivity to first order.
    """
    bm = as_matrix(b)
    pm = as_matrix(p)
    if bm.shape != pm.shape:
        raise DimensionMismatch("operand and projector dimensions differ")
    _check_projector(pm, tol)
    tp = pm.trace().real
    if tp < 0.5:
        # zero projector: no tangent directions at all
        return HermitianOperator(np.zeros_like(bm))
    q = np.eye(bm.shape[0]) - pm
    coeff = np.tensordot(bm, pm, axes=([0, 1], [1, 0])).real / tp
    out = bm - coeff * pm - q @ bm @ q
    return HermitianOperator(out)


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, w.size + 1)
    mask = u + (1.0 - css) / ks > 0
    k = ks[mask][-1]
    tau = (1.0 - css[k - 1]) / k
    return np.maximum(w + tau, 0.0)


def project_to_density(x, *, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """Closest density matrix in Frobenius norm.

    Diagonalize, project the spectrum onto the probability simplex, and
    recompose in the same eigenbasis.
    """
    m = as_matrix(x)
    m = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    lam = _project_simplex(w)
    out = (v * lam) @ v.conj().T
    return _wrap_trusted(DensityMatrix, out)


class HermitianBasis:
    """Orthonormal Hermitian basis; element 0 is I/sqrt(dim), the rest traceless."""

    __slots__ = ("dim", "elements")

    def __init__(self, dim: int, elements: Sequence[HermitianOperator]) -> None:
        self.dim = dim
        self.elements = tuple(elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def expand(self, x) -> np.ndarray:
        """Real coefficients <B_i, X> of a Hermitian X in this basis."""
        m = as_matrix(x)
        return np.array([frobenius(b, m) for b in self.elements])

    def reconstruct(self, coeffs: np.ndarray) -> HermitianOperator:
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for c, b in zip(coeffs, self.elements):
            acc += c * b.matrix
        return HermitianOperator(acc)


def hermitian_basis(dim: int) -> HermitianBasis:
    """Generalized Gell-Mann basis, orthonormal under the Frobenius product.

    Ordering: normalized identity, then for each index pair (j < k) the
    symmetric and antisymmetric off-diagonal elements, then the diagonal
    traceless elements.  For dim 2 this is {I, sx, sy, sz} / sqrt(2).
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    mats = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[j, k] = -1j / np.sqrt(2.0)
            asym[k, j] = 1j / np.sqrt(2.0)
            mats.append(asym)
    for l in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        for m in range(l):
            diag[m, m] = 1.0
        diag[l, l] = -float(l)
        diag /= np.sqrt(l * (l + 1.0))
        mats.append(diag)
    return HermitianBasis(dim, [HermitianOperator(m) for m in mats])

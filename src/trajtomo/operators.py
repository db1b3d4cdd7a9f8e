"""Hermitian-operator algebra for trajectory tomography.

Density matrices, measurement effects, time-indexed Kraus families and
the projection onto the state set.  The Frobenius inner product
<A, B> = tr(A B) (real for Hermitian arguments) is the metric everywhere.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import KRAUS_TRACE_TOL, PSD_TOL, TRACE_TOL
from .errors import DimensionMismatch, UnknownOutcome

__all__ = [
    "HermitianOperator",
    "DensityMatrix",
    "EffectMatrix",
    "KrausFamily",
    "apply_cp_map",
    "apply_adjoint_cp_map",
    "project_to_density",
]


def as_matrix(x) -> np.ndarray:
    """Return the complex matrix behind an operator-like object."""
    if isinstance(x, HermitianOperator):
        return x.matrix
    return np.asarray(x, dtype=complex)


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


def _check_state(m: np.ndarray, what: str) -> None:
    w = np.linalg.eigvalsh(m)
    if w[0] < -PSD_TOL:
        raise ValueError(
            f"{what} must be positive semidefinite; min eigenvalue {w[0]:.3e}"
        )
    tr = m.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{what} must have unit trace; got {tr!r}")


class DensityMatrix(HermitianOperator):
    """Unit-trace positive semidefinite Hermitian matrix."""

    __slots__ = ()

    def __init__(self, matrix) -> None:
        super().__init__(matrix)
        _check_state(self.matrix, "a density matrix")


class EffectMatrix(HermitianOperator):
    """Trace-one positive semidefinite matrix summarizing one record.

    Normalizing effects to unit trace keeps backward recursions scale free;
    the discarded scale lives in a separate log factor."""

    __slots__ = ()

    def __init__(self, matrix) -> None:
        super().__init__(matrix)
        _check_state(self.matrix, "an effect matrix")


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
    Each step dictionary is validated and stored once in ``_distinct``,
    in order of first appearance, however often it is passed by identity
    (periodic models); the read-only ``_schedule[t]`` indexes step t's
    entry, so per-step tables are built once per distinct step.
    """

    __slots__ = ("dim", "_distinct", "_schedule")

    def __init__(
        self,
        dim: int,
        steps: Sequence[Mapping[str, Iterable[np.ndarray]]],
    ) -> None:
        self.dim = int(dim)
        if self.dim < 2:
            raise DimensionMismatch("dimension must be at least 2")
        if len(steps) == 0:
            raise ValueError("a Kraus family needs at least one step")
        index: dict[int, int] = {}
        distinct = []
        for step in steps:
            if id(step) not in index:
                index[id(step)] = len(distinct)
                distinct.append(_validated_step(self.dim, step))
        self._distinct = tuple(distinct)
        self._schedule = np.array([index[id(step)] for step in steps], dtype=np.intp)
        self._schedule.flags.writeable = False

    @classmethod
    def repeated(
        cls,
        dim: int,
        step: Mapping[str, Iterable[np.ndarray]],
        n_steps: int,
    ) -> "KrausFamily":
        """A family applying the same step ``n_steps`` times."""
        return cls(dim, [step] * int(n_steps))

    @property
    def n_steps(self) -> int:
        return len(self._schedule)

    def step(self, t: int) -> Mapping[str, tuple[np.ndarray, ...]]:
        return self._distinct[self._schedule[t]]

    def outcomes(self, t: int) -> tuple[str, ...]:
        return tuple(self.step(t).keys())

    def operators(self, t: int, outcome: str) -> tuple[np.ndarray, ...]:
        try:
            return self.step(t)[str(outcome)]
        except KeyError:
            raise UnknownOutcome(
                f"outcome {outcome!r} is not defined at step {t}"
            ) from None

    def suffix(self, start: int) -> "KrausFamily":
        """The family restricted to steps ``start`` .. end (shares operators)."""
        if not 0 <= start < self.n_steps:
            raise ValueError(f"start index {start} outside [0, {self.n_steps})")
        out = KrausFamily.__new__(KrausFamily)
        out.dim, out._distinct = self.dim, self._distinct
        out._schedule = self._schedule[start:]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KrausFamily(dim={self.dim}, n_steps={self.n_steps})"


def _validated_step(dim: int, step) -> dict:
    """One step as {label: read-only operators}, checked for shapes and
    trace preservation."""
    out: dict[str, tuple[np.ndarray, ...]] = {}
    for label, ops in step.items():
        mats = []
        for op in ops:
            m = np.asarray(op, dtype=complex)
            if m.shape != (dim, dim):
                raise DimensionMismatch(
                    f"Kraus operator for outcome {label!r} has shape "
                    f"{m.shape}, expected {(dim, dim)}"
                )
            m = m.copy()
            m.setflags(write=False)
            mats.append(m)
        if not mats:
            raise ValueError(f"outcome {label!r} has no Kraus operators")
        out[str(label)] = tuple(mats)
    if not out:
        raise ValueError("a step needs at least one outcome")
    total = sum(m.conj().T @ m for ops in out.values() for m in ops)
    err = np.abs(total - np.eye(dim)).max()
    if err > KRAUS_TRACE_TOL:
        raise ValueError(f"Kraus step is not trace preserving; deviation {err:.3e}")
    return out


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


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, w.size + 1)
    mask = u + (1.0 - css) / ks > 0
    k = ks[mask][-1]
    tau = (1.0 - css[k - 1]) / k
    return np.maximum(w + tau, 0.0)


def project_to_density(x) -> DensityMatrix:
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

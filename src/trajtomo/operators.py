"""Hermitian-operator algebra for trajectory tomography.

Density matrices, measurement effects, time-indexed Kraus families, the
projection onto the state set, and the real coordinates in an
orthonormal Hermitian basis that the batched passes run on.  The
Frobenius inner product <A, B> = tr(A B) (real for Hermitian arguments)
is the metric everywhere.
"""
from __future__ import annotations

import math
import numbers
import operator
from functools import cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import KRAUS_TRACE_TOL, PSD_TOL, TRACE_TOL
from .errors import DimensionMismatch, UnknownOutcome

__all__ = [
    "DensityMatrix",
    "KrausFamily",
    "apply_cp_map",
    "apply_adjoint_cp_map",
    "project_to_density",
]


def as_matrix(x) -> np.ndarray:
    """Return the complex matrix behind an operator-like object."""
    if isinstance(x, DensityMatrix):
        return x.matrix
    return np.asarray(x, dtype=complex)


def _hermitian(matrix) -> np.ndarray:
    """The read-only (M + M*)/2 of a square complex matrix M, or of each
    matrix of an (N, d, d) stack.

    Symmetrizing quashes the Hermiticity drift that long products of
    Kraus maps would otherwise accumulate; downstream code may rely on
    the result being exactly equal to its conjugate transpose up to the
    symmetrization roundoff.
    """
    m = np.array(matrix, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    m += np.swapaxes(m.conj(), -1, -2)
    m *= 0.5
    m.setflags(write=False)
    return m


def _check_positive(e: np.ndarray, name, finite=True, unit_trace=False) -> None:
    """The one validity rule of states and effects: refuse a matrix of the
    Hermitian (N, d, d) stack e, naming matrix k as name(k), that is not
    finite (or has a false entry in ``finite``), has a trace at or below
    zero, has an eigenvalue below -PSD_TOL times its trace or, with
    ``unit_trace``, a trace off one by more than TRACE_TOL."""
    # NaN fails every comparison below, and may stall the eigensolver
    finite = np.isfinite(e).all(axis=(1, 2)) & finite
    bad = int(np.argmin(finite))
    if not finite[bad]:
        raise ValueError(f"{name(bad)} is not finite")
    tr = np.einsum("nii->n", e).real
    bad = int(np.argmin(tr))
    if not tr[bad] > 0.0:
        raise ValueError(f"{name(bad)} has trace {tr[bad]:.3e}, not positive")
    # E + PSD_TOL tr(E) I has a Cholesky factor when no eigenvalue of E lies
    # below -PSD_TOL tr(E), up to roundoff; only a failed factorization
    # pays for the eigenvalues that name the worst offender
    try:
        np.linalg.cholesky(e + (PSD_TOL * tr)[:, None, None] * np.eye(e.shape[-1]))
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(e)[:, 0]
        bad = int(np.argmin(w / tr))
        if w[bad] < -PSD_TOL * tr[bad]:
            raise ValueError(
                f"{name(bad)} is not positive semidefinite (min eigenvalue {w[bad]:.3e})"
            ) from None
    if unit_trace:
        dev = np.abs(tr - 1.0)
        bad = int(np.argmax(dev))
        if dev[bad] > TRACE_TOL:
            raise ValueError(f"{name(bad)} has trace off one by {dev[bad]:.3e}")


class DensityMatrix:
    """Unit-trace positive semidefinite Hermitian matrix.

    The type of states and of the trace-one effects that summarize
    records, which enter the likelihood the same way, as tr(rho E).
    ``matrix`` is symmetrized to (M + M*)/2 at construction, checked by
    ``_check_positive`` and read-only after.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        self.matrix = _hermitian(matrix)
        if self.matrix.ndim != 2:
            shape = self.matrix.shape
            raise DimensionMismatch(f"expected one matrix, got shape {shape}")
        _check_positive(
            self.matrix[None], lambda _: "a density matrix", unit_trace=True
        )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DensityMatrix(dim={self.dim})"


def _wrap_trusted(matrix: np.ndarray) -> DensityMatrix:
    """A DensityMatrix of a matrix whose batch was already validated."""
    obj = DensityMatrix.__new__(DensityMatrix)
    # bypass per-object validation; callers vouch for PSD and trace
    obj.matrix = _hermitian(matrix)
    return obj


def _integer(value, name: str, low=None, high=None) -> int:
    """value as an int, refused rather than truncated when it is not an
    integer (a float such as 2.9 or a bool included), and refused below
    ``low`` or, given ``high`` too, outside [low, high); the errors name
    it ``name``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not low <= value < high:
        raise ValueError(f"{name} {value} outside [{low}, {high})")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def _number(value, name: str, interval: str = "") -> float:
    """value as a float, refused rather than converted when it is not a real
    number (a bool or a string included), or outside ``interval``, written as
    it reads, such as "(0, inf]" (NaN lies in none); the errors name it ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if interval:
        low, high = map(float, interval[1:-1].split(","))
        above = low <= value if interval[0] == "[" else low < value
        below = value <= high if interval[-1] == "]" else value < high
        if not (above and below):
            raise ValueError(f"{name} must lie in {interval}, got {value!r}")
    return value


def _check_hermitian(m: np.ndarray, name: str) -> None:
    """Refuse a square matrix m unless max|M - M*| <= 1e-12 max(1, max|M|),
    which a NaN entry fails."""
    if not np.abs(m - m.conj().T).max() <= 1e-12 * max(1.0, np.abs(m).max()):
        raise ValueError(f"{name} must be Hermitian")


class KrausFamily:
    """Time-indexed, outcome-indexed Kraus operators.

    Step ``t`` maps a state X to ``K_{y,t}(X) = sum_k M X M*`` once outcome
    ``y`` is known; summed over outcomes every step is trace preserving.
    Each step dictionary is validated and stored once in ``_distinct``,
    in order of first appearance, however often it is passed by identity
    (periodic models); the read-only ``_schedule[t]`` indexes step t's
    entry, so per-step tables are built once per distinct step.

    The record passes of ``trajtomo.filtering`` ask the model which
    records it accepts (``_read``), its step maps as one expansion
    K_y = sum_m [y = m] R_m with one real block R_m per outcome
    (``_expansion``), how a record's outcome picks its block
    (``_combine``, a gather by outcome code), whether step traces are
    checked (``_trace_check``), what one step's Kraus operators are
    (``_ops``, for the step-by-step references and ``apply_cp_map``) and
    how to draw an outcome from its weights (``_sampler``); ``SMEModel``
    answers the same for signal records.
    """

    __slots__ = ("dim", "_distinct", "_schedule", "_maps")
    _record_type = "discrete"  # the record archives this model reads
    _trace_check = None  # step traces are outcome probabilities, not near one

    def __init__(
        self,
        dim: int,
        steps: Sequence[Mapping[str, Iterable[np.ndarray]]],
    ) -> None:
        self.dim = _integer(dim, "dimension")
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
        return cls(dim, [step] * _integer(n_steps, "n_steps"))

    @property
    def n_steps(self) -> int:
        return len(self._schedule)

    def step(self, t: int) -> Mapping[str, tuple[np.ndarray, ...]]:
        t = _integer(t, "step index", 0, self.n_steps)
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

    _ops = operators  # one step's Kraus operators, as ``SMEModel._ops`` gives them

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KrausFamily(dim={self.dim}, n_steps={self.n_steps})"

    def _read(self, batch):
        """The step-map inputs of a RecordBatch, and its records' problems.

        Returns each record's index into ``outcomes(t)`` at every step t
        (-1 past its end), looked up in a table of one row per distinct
        step, and the records' problems, as the exceptions a pass raises,
        in record order: too many steps, or else the first label that its
        step does not define.
        """
        if batch.dt is not None:
            raise TypeError("a Kraus family needs discrete records, not signals")
        span = min(batch.data.shape[1], self.n_steps)
        table = []
        for step in self._distinct:
            known = {y: i for i, y in enumerate(step)}
            # -2 marks a label the step does not define; the last entry is
            # where the -1 past a record's end lands
            table.append([known.get(y, -2) for y in batch.labels] + [-1])
        table = np.array(table, dtype=np.int16)
        codes = table[self._schedule[:span], batch.data[:, :span]]
        ids, lengths = batch.record_ids, batch.lengths
        unknown = codes == -2
        long = lengths > self.n_steps
        problems = []
        for n in np.flatnonzero(long | unknown.any(axis=1)):
            if long[n]:
                problems.append(ValueError(
                    f"record {ids[n]} has {lengths[n]} outcomes but the family "
                    f"defines only {self.n_steps} steps"
                ))
            else:
                t = int(np.argmax(unknown[n]))
                problems.append(UnknownOutcome(
                    f"unknown outcome {batch.labels[batch.data[n, t]]!r} of record "
                    f"{ids[n]} is not defined at step {t}"
                ))
        return codes, problems

    def _expansion(self, *, adjoint: bool):
        """The step maps as ``trajtomo.filtering`` runs them: the read-only
        ``_schedule`` and, per distinct step, one real (d^2, M d^2) map
        whose block m takes coordinate rows x of X to those of K_m(X), or
        K*_m(X) in the adjoint direction, m in the step's outcome order.
        Both directions are built on first use and kept read-only."""
        if not hasattr(self, "_maps"):
            blocks = [
                [_real_map(sum(np.kron(m, m.conj()) for m in ops)) for ops in s.values()]
                for s in self._distinct
            ]
            self._maps = {
                a: [np.concatenate([r if a else r.T for r in rs], 1) for rs in blocks]
                for a in (False, True)
            }
            for m in (*self._maps[False], *self._maps[True]):
                m.flags.writeable = False
        return self._schedule, self._maps[adjoint]

    @staticmethod
    def _combine(codes, blocks):
        """Row n's image: block ``codes[n]`` of its (n, M, live) ``blocks``."""
        return blocks[np.arange(len(codes)), codes]

    def _sampler(self, rng: np.random.Generator, n_records: int):
        """The outcome draw of ``filtering.sample_records``.

        Returns ``draw(t, probs)``, which draws every record's step-t
        outcome from its row of the (n_records, M) outcome weights
        ``probs`` (clipped at zero and normalized in place), one uniform
        per record, stores its code in the returned (n_records, n_steps)
        code matrix and returns its index into ``outcomes(t)``; and the
        RecordBatch keywords, whose labels are numbered in order of first
        appearance over the steps.
        """
        schedule = self._schedule
        # outcome i of step t is recorded as relabel[schedule[t], i]
        labels: dict[str, int] = {}
        relabel = np.zeros((len(self._distinct), max(map(len, self._distinct))), int)
        firsts = np.unique(schedule, return_index=True)[1]
        for k in schedule[np.sort(firsts)]:
            step = self._distinct[k]
            relabel[k, : len(step)] = [labels.setdefault(y, len(labels)) for y in step]
        code_type = np.min_scalar_type(-max(len(labels), 1))
        codes = np.empty((n_records, len(schedule)), code_type)

        def draw(t, probs):
            np.clip(probs, 0.0, None, out=probs)
            probs /= probs.sum(axis=1, keepdims=True)
            u = rng.random(n_records)
            idx = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
            idx = np.minimum(idx, probs.shape[1] - 1)
            codes[:, t] = relabel[schedule[t], idx]
            return idx

        return draw, codes, {"labels": tuple(labels)}


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
            if not np.isfinite(m).all():
                raise ValueError(f"Kraus operator for outcome {label!r} is not finite")
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
    if not err <= KRAUS_TRACE_TOL:
        raise ValueError(f"Kraus step is not trace preserving; deviation {err:.3e}")
    return out


def apply_cp_map(model, t: int, y, x) -> np.ndarray:
    """Evaluate K_{y,t}(X) = sum_k M X M* for step t and the record's value y
    there: an outcome label for a KrausFamily, the vector of signal
    increments for an SMEModel.  Returns the image symmetrized to
    (K + K*)/2, as a read-only array."""
    return _apply(model, t, y, x, adjoint=False)


def apply_adjoint_cp_map(model, t: int, y, x) -> np.ndarray:
    """Evaluate the Heisenberg-picture map K*_{y,t}(X) = sum_k M* X M; y as
    in ``apply_cp_map``."""
    return _apply(model, t, y, x, adjoint=True)


def _apply(model, t: int, y, x, *, adjoint: bool):
    mat = as_matrix(x)
    if mat.shape != (model.dim, model.dim):
        raise DimensionMismatch(
            f"operand has shape {mat.shape}, model dimension is {model.dim}"
        )
    return _hermitian(_kraus_form(model._ops(t, y), mat, adjoint))


def _kraus_form(ops, x: np.ndarray, adjoint: bool) -> np.ndarray:
    """sum_k M X M* over the Kraus operators M, or sum_k M* X M in the
    adjoint direction."""
    return sum(m.conj().T @ x @ m if adjoint else m @ x @ m.conj().T for m in ops)


@cache
def _basis(dim: int) -> np.ndarray:
    """Rows vec(B_k) of an orthonormal basis of the Hermitian matrices.

    The diagonal matrix units E_ii come first, then for each j < k
    (E_jk + E_kj)/sqrt(2) and i(E_kj - E_jk)/sqrt(2).  The batched
    passes carry a Hermitian X as its real coordinates x_k = tr(B_k X),
    so that X = sum_k x_k B_k and tr X is the sum of the first dim
    coordinates.  Matrix units keep the zeros of sparse Kraus operators
    exact, so a step of probability zero still traces to exactly zero.
    """
    j, k = np.triu_indices(dim, 1)
    pair, half = dim + 2 * np.arange(len(j)), 1.0 / math.sqrt(2.0)
    rows = np.zeros((dim * dim, dim, dim), dtype=complex)
    rows[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    rows[pair, j, k] = rows[pair, k, j] = half
    rows[pair + 1, j, k], rows[pair + 1, k, j] = -1j * half, 1j * half
    rows = rows.reshape(dim * dim, dim * dim)
    rows.flags.writeable = False
    return rows


def _coords(mats) -> np.ndarray:
    """Rows Re tr(B_k A) of (..., d, d) matrices A, shape (..., d^2).

    For Hermitian A these are its coordinates; for any A the row c gives
    Re tr(A X) = c . x for a Hermitian X with coordinates x.
    """
    a = np.asarray(mats)
    d = a.shape[-1]
    return (a.reshape(a.shape[:-2] + (d * d,)) @ _basis(d).conj().T).real


def _matrices(coords: np.ndarray) -> np.ndarray:
    """The (..., d, d) Hermitian matrices of coordinate rows (..., d^2)."""
    d = math.isqrt(coords.shape[-1])
    return (coords @ _basis(d)).reshape(coords.shape[:-1] + (d, d))


def _real_map(sup: np.ndarray) -> np.ndarray:
    """R[k, l] = tr(B_k K(B_l)) for a Hermiticity-preserving K with
    row-major vec(K(X)) = sup @ vec(X).

    Coordinate rows x map to x @ R.T under K and to x @ R under its
    adjoint K*, since the basis is real-orthonormal under tr(A B).
    """
    b = _basis(math.isqrt(sup.shape[0]))
    return (b.conj() @ sup @ b.T).real


def _closure(pattern: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """The indices reachable from the boolean mask ``seed`` along an exact
    boolean (n, n) ``pattern``, in which i reaches j when pattern[i, j]:
    the smallest mask that holds seed and is closed under the pattern."""
    reach = np.array(seed, bool)
    while True:
        grown = reach | pattern[reach].any(axis=0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _components(linked: np.ndarray) -> list[np.ndarray]:
    """The connected components of a symmetric boolean (n, n) pattern, as
    sorted index arrays in order of their smallest index."""
    n = len(linked)
    left, parts = np.ones(n, bool), []
    for k in range(n):
        if left[k]:
            part = _closure(linked, np.arange(n) == k)
            left &= ~part
            parts.append(np.flatnonzero(part))
    return parts


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(w)[::-1]
    css = u.cumsum()
    ks = np.arange(1, w.size + 1)
    mask = u + (1.0 - css) / ks > 0
    k = int(ks[mask][-1])
    tau = (1.0 - float(css[k - 1])) / k
    return np.maximum(w + tau, 0.0)


def _project_blocks(pops: np.ndarray, mats) -> tuple[np.ndarray, list]:
    """Closest state, in Frobenius norm, to the block-diagonal Hermitian
    matrix whose 1 x 1 blocks are the reals ``pops`` and whose larger
    blocks are the square matrices ``mats``: one eigendecomposition per
    larger block, one simplex projection of all the eigenvalues together,
    each block recomposed in its own eigenbasis and symmetrized as
    ``_hermitian`` does.  Returns the projected (pops, mats)."""
    eigs = [np.linalg.eigh((m + m.conj().T) / 2.0) for m in mats]
    lam = _project_simplex(np.concatenate([pops, *(w for w, _ in eigs)]))
    out, at = [], pops.size
    for w, v in eigs:
        m = (v * lam[at : at + w.size]) @ v.conj().T
        out.append((m + m.conj().T) * 0.5)
        at += w.size
    return lam[: pops.size], out


def project_to_density(x) -> DensityMatrix:
    """Closest density matrix in Frobenius norm.

    Diagonalize, project the spectrum onto the probability simplex, and
    recompose in the same eigenbasis: the one-block case of
    ``_project_blocks``.
    """
    return _wrap_trusted(_project_blocks(np.zeros(0), [as_matrix(x)])[1][0])

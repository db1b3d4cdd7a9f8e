"""Forward quantum filtering and backward adjoint-state propagation.

A measurement record is explained by a chain of conditional states
rho_{t+1} = K_{y_t,t}(rho_t) / tr(...).  Running the adjoint maps backwards
from the identity compresses everything the record says about the initial
state into a single trace-one effect E and a scale c, so that

    P(record | rho) = c * tr(rho E)

for every candidate initial state rho.  That factorization is what makes
maximum-likelihood search over rho cheap: the expensive per-record pass
happens once, not once per likelihood evaluation.
"""
from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, UnknownOutcome, ZeroProbability
from .operators import (
    DensityMatrix,
    EffectMatrix,
    HermitianOperator,
    KrausFamily,
    apply_adjoint_cp_map,
    apply_cp_map,
    as_matrix,
    _wrap_trusted,
)

__all__ = [
    "DiscreteRecord",
    "FilterTrace",
    "AdjointResult",
    "EffectBatch",
    "forward_step",
    "forward_run",
    "backward_step",
    "backward_run",
    "backward_sweep",
    "backward_batch",
    "backward_sweep_batch",
    "log_likelihood",
    "stack_effects",
    "forward_batch",
    "sample_records",
]


@dataclass(frozen=True)
class DiscreteRecord:
    """One measurement trajectory: an id and the outcome labels in time order."""

    id: int
    outcomes: tuple[str, ...]

    def __post_init__(self):
        if len(self.outcomes) < 1:
            raise ValueError("a record needs at least one outcome")
        object.__setattr__(self, "outcomes", tuple(str(y) for y in self.outcomes))

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class FilterTrace:
    """Forward filter output.

    ``states[t]`` is the conditional state before step t, so states has one
    more entry than step_probs and ``step_probs[t]`` is the probability the
    family assigned to outcome t given ``states[t]``.
    """

    states: tuple[DensityMatrix, ...]
    step_probs: tuple[float, ...]
    log_prob: float


@dataclass(frozen=True)
class AdjointResult:
    """Backward recursion output: P(record | rho) = exp(log_c) * tr(rho effect)."""

    effect: EffectMatrix
    log_c: float


@dataclass(frozen=True, eq=False)
class EffectBatch:
    """Compressed records as arrays.

    P(record n | rho) = exp(log_c[n]) tr(rho effects[n]).  ``effects``
    has shape (N, d, d) and is symmetrized, checked for unit trace and
    positivity once at construction, and read-only after; ``log_c`` and
    ``record_ids`` have shape (N,).  ``start`` only names the suffix
    start time in error messages.  Indexing returns the per-record
    AdjointResult, built on demand; iteration yields them in order.
    """

    effects: np.ndarray
    log_c: np.ndarray
    record_ids: np.ndarray
    start: InitVar[int] = 0
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, start: int, tol: Tolerances) -> None:
        e = np.asarray(self.effects, dtype=complex)
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise DimensionMismatch(f"expected (N, d, d) effects, got {e.shape}")
        e = (e + e.conj().transpose(0, 2, 1)) / 2.0
        log_c = np.array(self.log_c, dtype=float)
        ids = np.array(self.record_ids, dtype=int)
        if log_c.shape != e.shape[:1] or ids.shape != e.shape[:1]:
            raise DimensionMismatch(
                f"{e.shape[0]} effects need as many log scales and record ids, "
                f"got {log_c.shape} and {ids.shape}"
            )
        if e.shape[0]:
            w = np.linalg.eigvalsh(e)[:, 0]
            bad = int(np.argmin(w))
            if w[bad] < -tol.psd:
                raise ValueError(
                    f"effect of record {ids[bad]} from start index {start} lost "
                    f"positivity (min eigenvalue {w[bad]:.3e})"
                )
            dev = np.abs(np.einsum("nii->n", e).real - 1.0)
            bad = int(np.argmax(dev))
            if dev[bad] > tol.trace:
                raise ValueError(
                    f"effect of record {ids[bad]} from start index {start} has "
                    f"trace off one by {dev[bad]:.3e}"
                )
        for name, arr in (("effects", e), ("log_c", log_c), ("record_ids", ids)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.effects.shape[0]

    def __getitem__(self, i) -> AdjointResult:
        i = operator.index(i)
        return AdjointResult(
            _wrap_trusted(EffectMatrix, self.effects[i]), float(self.log_c[i])
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def forward_step(
    family: KrausFamily,
    t: int,
    outcome: str,
    rho,
    *,
    tol: Tolerances = DEFAULT,
) -> tuple[DensityMatrix, float]:
    """One conditioning step: returns the updated state and the step probability."""
    sigma = apply_cp_map(family, t, outcome, rho).matrix
    p = sigma.trace().real
    if p <= tol.prob_floor:
        raise ZeroProbability(
            f"outcome {outcome!r} at step {t} has probability {p!r}", step=t
        )
    return _wrap_trusted(DensityMatrix, sigma / p), p


def forward_run(
    family: KrausFamily,
    record: DiscreteRecord,
    rho0,
    *,
    tol: Tolerances = DEFAULT,
) -> FilterTrace:
    """Filter a full record from initial state rho0."""
    _check_record(family, record)
    rho = rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0, tol=tol)
    states = [rho]
    probs = []
    log_prob = 0.0
    for t, y in enumerate(record.outcomes):
        try:
            rho, p = forward_step(family, t, y, rho, tol=tol)
        except ZeroProbability as exc:
            raise ZeroProbability(str(exc), step=t, record_id=record.id) from None
        states.append(rho)
        probs.append(p)
        log_prob += math.log(p)
    return FilterTrace(tuple(states), tuple(probs), log_prob)


def backward_step(
    family: KrausFamily,
    t: int,
    outcome: str,
    effect,
    *,
    tol: Tolerances = DEFAULT,
) -> tuple[EffectMatrix, float]:
    """One adjoint step: returns the renormalized effect and the trace factor."""
    f = apply_adjoint_cp_map(family, t, outcome, effect).matrix
    c = f.trace().real
    if c <= tol.prob_floor:
        raise ZeroProbability(
            f"adjoint step {t} for outcome {outcome!r} has trace {c!r}", step=t
        )
    return _wrap_trusted(EffectMatrix, f / c), c


def backward_run(
    family: KrausFamily,
    record: DiscreteRecord,
    *,
    tol: Tolerances = DEFAULT,
) -> AdjointResult:
    """Compress one record into (effect, log_c) by running all steps backwards.

    The recursion starts from the maximally mixed effect I/dim, so log_c
    starts at log(dim) and P(record | rho) = exp(log_c) * tr(rho effect).
    """
    return backward_sweep(family, record, (0,), tol=tol)[0]


def backward_sweep(
    family: KrausFamily,
    record: DiscreteRecord,
    start_indices: Sequence[int],
    *,
    tol: Tolerances = DEFAULT,
) -> dict[int, AdjointResult]:
    """Adjoint results for several suffixes of one record in a single pass.

    ``start_indices[k] = s`` asks for the effect summarizing outcomes
    s, s+1, ..., end; the full record corresponds to s = 0.
    """
    _check_record(family, record)
    n = len(record.outcomes)
    wanted = _check_starts(start_indices, n)
    dim = family.dim
    eff = HermitianOperator(np.eye(dim) / dim)
    acc = 0.0
    out: dict[int, AdjointResult] = {}
    for t in range(n - 1, -1, -1):
        try:
            eff, c = backward_step(family, t, record.outcomes[t], eff, tol=tol)
        except ZeroProbability as exc:
            raise ZeroProbability(str(exc), step=t, record_id=record.id) from None
        acc += math.log(c)
        if t in wanted:
            out[t] = AdjointResult(eff, math.log(dim) + acc)
    return out


def log_likelihood(rho, effects) -> float:
    """Total log likelihood sum_n [log c_n + log tr(rho E_n)].

    Returns -inf when some tr(rho E) is not strictly positive: the state
    assigns zero probability to at least one record.
    """
    e, logc = stack_effects(effects)
    mat = as_matrix(rho)
    if e.shape[0] == 0:
        return 0.0
    traces = np.einsum("nij,ji->n", e, mat).real
    if traces.min() <= 0.0:
        return -math.inf
    return float(logc.sum() + np.log(traces).sum())


def stack_effects(effects) -> tuple[np.ndarray, np.ndarray]:
    """Stack a sequence of effects into (N, d, d) plus their log scales.

    An EffectBatch hands over its own read-only arrays without copying.
    Otherwise accepts a sequence of AdjointResult (contributing its
    log_c), EffectMatrix or plain Hermitian arrays (contributing
    log_c = 0).
    """
    if isinstance(effects, EffectBatch):
        return effects.effects, effects.log_c
    mats = []
    logc = []
    for item in effects:
        if isinstance(item, AdjointResult):
            mats.append(item.effect.matrix)
            logc.append(item.log_c)
        else:
            mats.append(as_matrix(item))
            logc.append(0.0)
    if not mats:
        return np.zeros((0, 0, 0), dtype=complex), np.zeros(0)
    return np.stack(mats), np.asarray(logc, dtype=float)


# ---------------------------------------------------------------------------
# batched paths
# ---------------------------------------------------------------------------


def _check_record(family: KrausFamily, record: DiscreteRecord) -> None:
    if len(record.outcomes) > family.n_steps:
        raise ValueError(
            f"record {record.id} has {len(record.outcomes)} outcomes but the "
            f"family defines only {family.n_steps} steps"
        )


def _check_starts(start_indices: Sequence[int], n: int) -> frozenset[int]:
    out = frozenset(int(s) for s in start_indices)
    for s in out:
        if not 0 <= s < n:
            raise ValueError(f"start index {s} outside the record span [0, {n})")
    return out


def _adjoint_superops(family: KrausFamily, n_steps: int):
    """Per-step {outcome: S} with vec(K*_y(E)) = S @ vec(E), cached by step identity."""
    cache: dict[int, dict[str, np.ndarray]] = {}
    table = []
    for t in range(n_steps):
        step = family.step(t)
        sup = cache.get(id(step))
        if sup is None:
            sup = {
                y: sum(np.kron(m.conj().T, m.T) for m in ops)
                for y, ops in step.items()
            }
            cache[id(step)] = sup
        table.append(sup)
    return table


def _forward_superops(family: KrausFamily, n_steps: int):
    cache: dict[int, dict[str, np.ndarray]] = {}
    table = []
    for t in range(n_steps):
        step = family.step(t)
        sup = cache.get(id(step))
        if sup is None:
            sup = {
                y: sum(np.kron(m, m.conj()) for m in ops)
                for y, ops in step.items()
            }
            cache[id(step)] = sup
        table.append(sup)
    return table


def backward_batch(
    family: KrausFamily,
    records: Sequence[DiscreteRecord],
    *,
    threads: int | None = None,
    tol: Tolerances = DEFAULT,
) -> EffectBatch:
    """Adjoint results for many records, in the order given.

    Equal-length records are processed as one vectorized pass; mixed
    lengths fall back to a per-record loop, optionally fanned out over
    ``threads`` workers.  Output order never depends on the thread count.
    """
    out = backward_sweep_batch(family, records, (0,), threads=threads, tol=tol)
    return out[0]


def backward_sweep_batch(
    family: KrausFamily,
    records: Sequence[DiscreteRecord],
    start_indices: Sequence[int],
    *,
    threads: int | None = None,
    tol: Tolerances = DEFAULT,
) -> dict[int, EffectBatch]:
    """Adjoint results for several record suffixes over a whole batch.

    The effects at start s are those of the records longer than s, in
    record order.
    """
    records = list(records)
    if not records:
        empty = np.zeros((0, family.dim, family.dim))
        return {int(s): EffectBatch(empty, (), ()) for s in start_indices}
    lengths = {len(r.outcomes) for r in records}
    if len(lengths) == 1:
        return _sweep_vectorized(family, records, start_indices, tol)
    starts = tuple(start_indices)

    def one(rec: DiscreteRecord) -> dict[int, AdjointResult]:
        usable = [s for s in starts if s < len(rec.outcomes)]
        return backward_sweep(family, rec, usable, tol=tol)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_record = list(pool.map(one, records))
    else:
        per_record = [one(r) for r in records]
    out = {}
    for s in map(int, starts):
        done = [(rec.id, res[s]) for rec, res in zip(records, per_record) if s in res]
        out[s] = EffectBatch(
            np.array([adj.effect.matrix for _, adj in done]).reshape(
                -1, family.dim, family.dim
            ),
            [adj.log_c for _, adj in done],
            [i for i, _ in done],
            start=s,
            tol=tol,
        )
    return out


def _sweep_vectorized(
    family: KrausFamily,
    records: Sequence[DiscreteRecord],
    start_indices: Sequence[int],
    tol: Tolerances,
) -> dict[int, EffectBatch]:
    n_steps = len(records[0].outcomes)
    for r in records:
        _check_record(family, r)
    wanted = _check_starts(start_indices, n_steps)
    dim = family.dim
    n = len(records)
    supers = _adjoint_superops(family, n_steps)
    # outcome labels -> integer codes per step
    flat = np.tile((np.eye(dim) / dim).reshape(-1), (n, 1)).astype(complex)
    logc = np.full(n, math.log(dim))
    diag_idx = np.arange(dim) * (dim + 1)
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for t in range(n_steps - 1, -1, -1):
        sup = supers[t]
        labels = family.outcomes(t)
        codes = {y: i for i, y in enumerate(labels)}
        try:
            idx = np.array([codes[r.outcomes[t]] for r in records])
        except KeyError:
            bad = next(r for r in records if r.outcomes[t] not in codes)
            raise UnknownOutcome(
                f"outcome {bad.outcomes[t]!r} of record {bad.id} is not defined "
                f"at step {t}"
            ) from None
        for i, y in enumerate(labels):
            mask = idx == i
            if mask.any():
                flat[mask] = flat[mask] @ sup[y].T
        traces = flat[:, diag_idx].sum(axis=1).real
        if traces.min() <= tol.prob_floor:
            bad = int(np.argmin(traces))
            raise ZeroProbability(
                f"record {records[bad].id} hit zero probability at step {t}",
                step=t,
                record_id=records[bad].id,
            )
        flat /= traces[:, None]
        logc += np.log(traces)
        if t in wanted:
            snapshots[t] = (flat.copy(), logc.copy())
    ids = [r.id for r in records]
    return {
        s: EffectBatch(f.reshape(-1, dim, dim), lc, ids, start=s, tol=tol)
        for s, (f, lc) in snapshots.items()
    }


def forward_batch(
    family: KrausFamily,
    records: Sequence[DiscreteRecord],
    rho0,
    at: Sequence[int],
    *,
    tol: Tolerances = DEFAULT,
) -> dict[int, np.ndarray]:
    """Conditional states of many records at selected times, batched.

    ``at`` holds step counts: entry k means the state after conditioning
    on outcomes 0..k-1, so 0 is the initial state.  Returns arrays of
    shape (n_records, dim, dim) per requested time.  Records must share
    a common length for the vectorized pass; mixed lengths fall back to
    per-record filtering.
    """
    records = list(records)
    if not records:
        return {int(k): np.zeros((0, family.dim, family.dim)) for k in at}
    lengths = {len(r.outcomes) for r in records}
    if len(lengths) != 1:
        out: dict[int, list[np.ndarray]] = {int(k): [] for k in at}
        for rec in records:
            trace = forward_run(family, rec, rho0, tol=tol)
            for k in at:
                if k <= len(rec.outcomes):
                    out[int(k)].append(trace.states[int(k)].matrix)
        return {k: np.stack(v) if v else np.zeros((0, family.dim, family.dim))
                for k, v in out.items()}
    n_steps = lengths.pop()
    for r in records:
        _check_record(family, r)
    wanted = frozenset(int(k) for k in at)
    for k in wanted:
        if not 0 <= k <= n_steps:
            raise ValueError(f"time index {k} outside the record span [0, {n_steps}]")
    dim = family.dim
    n = len(records)
    rho = as_matrix(rho0)
    DensityMatrix(rho, tol=tol)
    supers = _forward_superops(family, n_steps)
    flat = np.tile(rho.reshape(-1), (n, 1)).astype(complex)
    diag_idx = np.arange(dim) * (dim + 1)
    out_states: dict[int, np.ndarray] = {}
    if 0 in wanted:
        out_states[0] = flat.reshape(n, dim, dim).copy()
    for t in range(n_steps):
        sup = supers[t]
        labels = family.outcomes(t)
        codes = {y: i for i, y in enumerate(labels)}
        try:
            idx = np.array([codes[r.outcomes[t]] for r in records])
        except KeyError:
            bad = next(r for r in records if r.outcomes[t] not in codes)
            raise UnknownOutcome(
                f"outcome {bad.outcomes[t]!r} of record {bad.id} is not defined "
                f"at step {t}"
            ) from None
        for i, y in enumerate(labels):
            mask = idx == i
            if mask.any():
                flat[mask] = flat[mask] @ sup[y].T
        traces = flat[:, diag_idx].sum(axis=1).real
        if traces.min() <= tol.prob_floor:
            bad = int(np.argmin(traces))
            raise ZeroProbability(
                f"record {records[bad].id} hit zero probability at step {t}",
                step=t,
                record_id=records[bad].id,
            )
        flat /= traces[:, None]
        if t + 1 in wanted:
            out_states[t + 1] = flat.reshape(n, dim, dim).copy()
    return out_states


def sample_records(
    family: KrausFamily,
    rho0,
    n_records: int,
    rng_seed: int,
    *,
    n_steps: int | None = None,
    interventions: Mapping[int, np.ndarray] | None = None,
    keep_mean: bool = False,
    tol: Tolerances = DEFAULT,
):
    """Draw measurement records from the family's outcome law.

    Every trajectory starts at rho0; at each step the next outcome is drawn
    with probability tr(K_y(rho)) and the state is conditioned on it.
    ``interventions`` optionally maps a step index to a (dim^2, dim^2)
    channel acting on vec(rho), applied to all trajectories just before
    that step (state preparation events inside a record).

    Returns the list of records; with ``keep_mean`` also the ensemble
    average state after each step as an (n_steps+1, dim, dim) array.
    """
    if n_records < 1:
        raise ValueError("need at least one record")
    total = family.n_steps if n_steps is None else int(n_steps)
    if not 1 <= total <= family.n_steps:
        raise ValueError(f"n_steps must be in [1, {family.n_steps}]")
    dim = family.dim
    rho = as_matrix(rho0)
    DensityMatrix(rho, tol=tol)  # validate once
    rng = np.random.default_rng(rng_seed)
    supers = _forward_superops(family, total)
    # weight operators Q_y = sum_k M* M give outcome probabilities as tr(rho Q_y)
    weight_cache: dict[int, dict[str, np.ndarray]] = {}
    flat = np.tile(rho.reshape(-1), (n_records, 1)).astype(complex)
    diag_idx = np.arange(dim) * (dim + 1)
    outcomes = np.empty((n_records, total), dtype=object)
    means = [flat.mean(axis=0).reshape(dim, dim)] if keep_mean else None
    for t in range(total):
        if interventions and t in interventions:
            flat = flat @ np.asarray(interventions[t], dtype=complex).T
            traces = flat[:, diag_idx].sum(axis=1).real
            flat /= traces[:, None]
        step = family.step(t)
        weights = weight_cache.get(id(step))
        if weights is None:
            # stored transposed so that flat @ w computes tr(rho Q_y)
            weights = {
                y: sum(m.conj().T @ m for m in ops).T.reshape(-1)
                for y, ops in step.items()
            }
            weight_cache[id(step)] = weights
        labels = family.outcomes(t)
        probs = np.stack(
            [(flat @ weights[y]).real for y in labels], axis=1
        )
        np.clip(probs, 0.0, None, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random(n_records)
        idx = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
        idx = np.minimum(idx, len(labels) - 1)
        sup = supers[t]
        for i, y in enumerate(labels):
            mask = idx == i
            if mask.any():
                flat[mask] = flat[mask] @ sup[y].T
                outcomes[mask, t] = y
        traces = flat[:, diag_idx].sum(axis=1).real
        if traces.min() <= tol.prob_floor:
            bad = int(np.argmin(traces))
            raise ZeroProbability(
                f"simulated trajectory {bad} collapsed to zero probability",
                step=t,
                record_id=bad,
            )
        flat /= traces[:, None]
        if keep_mean:
            means.append(flat.mean(axis=0).reshape(dim, dim))
    records = [
        DiscreteRecord(i, tuple(outcomes[i])) for i in range(n_records)
    ]
    if keep_mean:
        return records, np.stack(means)
    return records

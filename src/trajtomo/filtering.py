"""Forward quantum filtering and backward adjoint-state propagation.

A measurement record is explained by a chain of conditional states
rho_{t+1} = K_{y_t,t}(rho_t) / tr(...).  Running the adjoint maps backwards
from the identity compresses everything the record says about the initial
state into a single trace-one effect E and a scale c, so that

    P(record | rho) = c * tr(rho E)

for every candidate initial state rho.  That factorization is what makes
maximum-likelihood search over rho cheap: the expensive per-record pass
happens once, not once per likelihood evaluation.

Records travel as one RecordBatch of arrays, from the sampler and the
archive reader to every batched pass; DiscreteRecord and
ContinuousRecord are the per-record views it hands out.  Every pass,
and the sampler, takes either model type, a KrausFamily for discrete
outcomes or an SMEModel for diffusive signals, as one expansion of its
step maps, K_y = sum_m phi_m(y) R_m, with phi one-hot on an outcome and
(1, dy, dy dy) on signal increments.  The models give what differs,
through private methods they share: ``_read`` checks a batch and gives
its step inputs, ``_expansion`` the blocks R_m of each distinct step as
one stacked real map, ``_combine`` a row's image from its blocks (a
gather by outcome, or the phi(dy) weighting), ``_trace_check``, ``_ops``
(one step's Kraus operators) and ``_sampler`` (a step's draw from its M
trace weights).  The step (``_propagate``), the coordinates a pass can
reach under the blocks' nonzero pattern (``_live``: 8 of 64 for a QND
model in the Fock basis, started diagonal) and the sampler's weight
columns (``_weights``) are written once, here.
"""
from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import PROB_FLOOR
from .errors import DimensionMismatch, ZeroProbability
from .operators import (
    DensityMatrix,
    as_matrix,
    _check_positive,
    _closure,
    _coords,
    _hermitian,
    _integer,
    _kraus_form,
    _matrices,
    _number,
    _real_map,
    _wrap_trusted,
)

__all__ = [
    "DiscreteRecord",
    "RecordBatch",
    "AdjointResult",
    "EffectBatch",
    "forward_run",
    "backward_sweep",
    "backward_sweep_batch",
    "forward_batch",
    "sample_records",
]


@dataclass(frozen=True)
class DiscreteRecord:
    """One measurement trajectory: an id and the outcome labels in time order."""

    id: int
    outcomes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "id", _integer(self.id, "id"))
        if len(self.outcomes) < 1:
            raise ValueError("a record needs at least one outcome")
        object.__setattr__(self, "outcomes", tuple(str(y) for y in self.outcomes))

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class ContinuousRecord:
    """Measured signal increments over a time grid.

    increments has shape (n_steps, n_monitored_channels); row t holds the
    integrals of each monitored signal over [t dt, (t+1) dt].  Exported
    by ``trajtomo.continuous``; defined here so that RecordBatch can hand
    it out.
    """

    id: int
    dt: float
    increments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "id", _integer(self.id, "id"))
        object.__setattr__(self, "dt", _number(self.dt, "dt", "(0, inf]"))
        sig = np.array(self.increments, dtype=float)
        if sig.ndim != 2:
            raise ValueError("increments must be a 2-d array (steps, channels)")
        if sig.shape[0] < 1:
            raise ValueError("a record needs at least one step")
        sig.flags.writeable = False
        object.__setattr__(self, "increments", sig)

    def __len__(self) -> int:
        return self.increments.shape[0]


@dataclass(frozen=True, eq=False)
class RecordBatch:
    """Measurement records as arrays: what every batched pass reads.

    ``data`` holds either discrete outcomes, as an (N, T) integer matrix
    of codes into ``labels`` that is -1 after each record ends, or
    signal increments taken on a grid of step ``dt``, as an (N, T, k)
    array that is zero after each record ends.  T is the longest
    record's length; ``lengths`` (each at least one) and ``record_ids``
    have shape (N,); no two records share an id, since every pass names
    a record by its id.  The arrays are checked once at construction and
    read-only after.  An integer index returns that record's
    DiscreteRecord or ContinuousRecord view, a slice a sub-batch;
    iteration yields the views in order.
    """

    data: np.ndarray
    lengths: np.ndarray
    record_ids: np.ndarray
    labels: tuple[str, ...] = ()
    dt: float | None = None

    def __post_init__(self) -> None:
        lengths = _integers(self.lengths, "lengths")
        ids = _integers(self.record_ids, "record_ids")
        data, labels = np.asarray(self.data), tuple(map(str, self.labels))
        n, signals = len(lengths), self.dt is not None
        if data.ndim != 2 + signals or data.shape[0] != n or ids.shape != (n,):
            raise DimensionMismatch(
                f"{data.shape} data does not fit {lengths.shape} lengths and "
                f"{ids.shape} record ids"
            )
        if lengths.min(initial=1) < 1 or data.shape[1] != lengths.max(initial=0):
            raise ValueError("records need a step each and data spanning the longest")
        order = np.sort(ids)
        repeated = order[1:][order[1:] == order[:-1]]
        if repeated.size:
            raise ValueError(f"record id {repeated[0]} is held by more than one record")
        inside = np.arange(data.shape[1]) < lengths[:, None]
        if signals:
            if labels:
                raise ValueError("signal records need no labels")
            object.__setattr__(self, "dt", _number(self.dt, "dt", "(0, inf]"))
            data, pad = np.array(data, float), 0
        else:
            codes = data[inside]
            if len(set(labels)) < len(labels) or data.size and (
                data.dtype.kind not in "iu"
                or not 0 <= codes.min() <= codes.max() < len(labels)
            ):
                raise ValueError(f"codes must index the distinct labels {labels}")
            # the smallest signed type that holds every code keeps the matrix compact
            data, pad = np.array(data, np.min_scalar_type(-max(len(labels), 1))), -1
        if (data[~inside] != pad).any():
            raise ValueError(f"data past the end of a record must be {pad}")
        for name, arr in (("data", data), ("lengths", lengths), ("record_ids", ids)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_records(cls, records) -> RecordBatch:
        """The batch of a sequence of DiscreteRecord or ContinuousRecord
        views, all of one type; a RecordBatch passes through unchanged."""
        if isinstance(records, RecordBatch):
            return records
        records = list(records)
        return _pack(records, lambda i: f"record {records[i].id}")

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i):
        if isinstance(i, slice):
            lengths = self.lengths[i]
            return RecordBatch(
                self.data[i, : lengths.max(initial=0)], lengths, self.record_ids[i],
                self.labels, self.dt,
            )
        n = operator.index(i)
        rid, row = int(self.record_ids[n]), self.data[n, : self.lengths[n]]
        if self.dt is None:
            return DiscreteRecord(rid, tuple(self.labels[c] for c in row.tolist()))
        return ContinuousRecord(rid, self.dt, row)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _integers(values, name: str) -> np.ndarray:
    """values as an int array, refused rather than truncated when an entry
    is not an integer (a float or a bool included); the error names it
    ``name``.  An empty array of any dtype passes."""
    if isinstance(values, np.ndarray):
        if values.size and values.dtype.kind not in "iu":
            raise TypeError(f"{name} must be integers, got {values.dtype} entries")
        return values.astype(int)
    return np.array([_integer(v, f"{name} entry") for v in values], int)


def _pack(records: list, where: Callable[[int], str]) -> RecordBatch:
    """One batch from record views of one type, labels numbered in order of
    first appearance.  Signal records must share the first record's grid
    step and channel count; ``where(i)`` names record i when one does not.
    """
    if not records:
        return RecordBatch(np.zeros((0, 0), np.int8), (), ())
    kinds = {type(r) for r in records}
    if len(kinds) > 1 or not kinds <= {DiscreteRecord, ContinuousRecord}:
        raise TypeError(f"cannot batch records of type {[k.__name__ for k in kinds]}")
    lengths = np.array([len(r) for r in records])
    inside = np.arange(lengths.max()) < lengths[:, None]
    ids = [r.id for r in records]
    if kinds == {DiscreteRecord}:
        index: dict[str, int] = {}
        codes = [index.setdefault(y, len(index)) for r in records for y in r.outcomes]
        data = np.full(inside.shape, -1, np.min_scalar_type(-max(len(index), 1)))
        data[inside] = codes
        return RecordBatch(data, lengths, ids, tuple(index))
    dts = np.array([r.dt for r in records])
    ks = np.array([r.increments.shape[1] for r in records])
    off = np.flatnonzero((dts != dts[0]) | (ks != ks[0]))
    if off.size:
        raise ValueError(
            f"{where(off[0])}: grid step {dts[off[0]]} s and {ks[off[0]]} signal "
            f"channels, but the first record has {dts[0]} s and {ks[0]}; one "
            "batch holds one grid and one channel count"
        )
    data = np.zeros(inside.shape + (ks[0],))
    data[inside] = np.concatenate([r.increments for r in records])
    return RecordBatch(data, lengths, ids, dt=dts[0])


@dataclass(frozen=True)
class FilterTrace:
    """Forward filter output.

    ``states`` is a read-only (T+1, d, d) array whose entry t is the
    conditional state before step t, so states has one more entry than
    step_probs and ``step_probs[t]`` is the probability the family
    assigned to outcome t given ``states[t]``.
    """

    states: np.ndarray
    step_probs: tuple[float, ...]
    log_prob: float


@dataclass(frozen=True)
class AdjointResult:
    """Backward recursion output: P(record | rho) = exp(log_c) * tr(rho effect)."""

    effect: DensityMatrix
    log_c: float


@dataclass(frozen=True, eq=False)
class EffectBatch:
    """Compressed records as arrays.

    P(record n | rho) = exp(log_c[n]) tr(rho effects[n]).  ``effects``
    has shape (N, d, d) and is symmetrized, checked for finite entries,
    unit trace and positivity once at construction, and read-only after;
    ``log_c`` (checked finite) and ``record_ids`` have shape (N,).
    ``start`` only names the suffix start time in error messages.
    Indexing returns the per-record AdjointResult, built on demand;
    iteration yields them in order.
    """

    effects: np.ndarray
    log_c: np.ndarray
    record_ids: np.ndarray
    start: InitVar[int] = 0

    def __post_init__(self, start: int) -> None:
        e = np.asarray(self.effects, dtype=complex)
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise DimensionMismatch(f"expected (N, d, d) effects, got {e.shape}")
        e = _hermitian(e)
        log_c = np.array(self.log_c, dtype=float)
        ids = _integers(self.record_ids, "record_ids")
        if log_c.shape != e.shape[:1] or ids.shape != e.shape[:1]:
            raise DimensionMismatch(
                f"{e.shape[0]} effects need as many log scales and record ids, "
                f"got {log_c.shape} and {ids.shape}"
            )
        if e.shape[0]:
            _check_positive(
                e, lambda k: f"effect of record {ids[k]} from start index {start}",
                np.isfinite(log_c), unit_trace=True,
            )
        for name, arr in (("effects", e), ("log_c", log_c), ("record_ids", ids)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.effects.shape[0]

    def __getitem__(self, i) -> AdjointResult:
        i = operator.index(i)
        return AdjointResult(_wrap_trusted(self.effects[i]), float(self.log_c[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def forward_run(model, record, rho0) -> FilterTrace:
    """Filter one record from initial state rho0, one step at a time.

    ``model`` is a KrausFamily with a DiscreteRecord, or an SMEModel with
    a ContinuousRecord.  log_prob is the log probability of the outcomes,
    or for signals their log density relative to pure noise, where only
    differences between candidate initial states are meaningful.  The
    step-by-step reference of ``forward_batch``.
    """
    _checked(model, [record])
    rho = _initial_state(model, rho0)
    states, probs = [rho.matrix], []
    for _, mat, p in _step_by_step(model, record, rho.matrix, adjoint=False):
        states.append(mat)
        probs.append(p)
    states = _hermitian(states)
    _check_positive(
        states, lambda t: f"filtered state of record {record.id} at step {t}",
        unit_trace=True,
    )
    return FilterTrace(states, tuple(probs), sum(map(math.log, probs)))


def backward_sweep(
    model, record, start_indices: Sequence[int]
) -> dict[int, AdjointResult]:
    """Adjoint results for several suffixes of one record, one step at a time.

    ``start_indices[k] = s`` asks for the effect summarizing steps s,
    s+1, ..., end; the full record corresponds to s = 0.  The recursion
    E <- K*(E) / tr(K*(E)) starts from the maximally mixed effect I/dim,
    so log_c starts at log(dim) and P(suffix | rho) = exp(log_c) *
    tr(rho effect).  Each start's result is checked as the batched
    sweep's are, as the one entry of an EffectBatch.  ``model`` and
    ``record`` pair as in ``forward_run``; the step-by-step reference of
    ``backward_sweep_batch``.
    """
    _checked(model, [record])
    wanted = set(_indices(start_indices, len(record), adjoint=True))
    log_c, out = math.log(model.dim), {}
    x = np.eye(model.dim) / model.dim
    for t, eff, c in _step_by_step(model, record, x, adjoint=True):
        log_c += math.log(c)
        if t in wanted:
            out[t] = EffectBatch(eff[None], [log_c], [record.id], start=t)[0]
    return out


def _initial_state(model, rho0) -> DensityMatrix:
    """rho0 as a DensityMatrix, refused unless it has the model's dimension."""
    rho = rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0)
    if rho.dim != model.dim:
        raise DimensionMismatch(
            f"initial state has dimension {rho.dim}, the model has {model.dim}"
        )
    return rho


def _step_by_step(model, record, x, *, adjoint):
    """One record through the plain Kraus-form recursion, a step at a time.

    Step t applies the model's Kraus operators for the record's outcome
    or increments there, as K(X) = sum M X M*, or K*(X) = sum M* X M in
    the adjoint direction, where the steps run from the last.  Each image
    is divided by its trace; yields (t, image, trace) per step.  The
    references that the batched passes are checked against: complex
    matrices, independent of ``_propagate`` but with the same trace check
    and zero-probability test.
    """
    check = model._trace_check
    y = record.outcomes if isinstance(record, DiscreteRecord) else record.increments
    for t in reversed(range(len(record))) if adjoint else range(len(record)):
        new = _kraus_form(model._ops(t, y[t]), x, adjoint)
        c = float(new.trace().real)
        if check is not None:
            check(np.array([c]), t, [record.id])
        _floor(np.array([c]), t, [record.id])
        x = new / c
        yield t, x, c


def _of_dim(x, dim: int, what: str) -> np.ndarray:
    """The matrix, or (m, d, d) stack, behind x, refused unless its
    matrices are dim x dim, the dimension of the effects."""
    mat = as_matrix(x)
    if mat.shape[-2:] != (dim, dim):
        raise DimensionMismatch(
            f"{what} has shape {mat.shape}, the effects have dimension {dim}"
        )
    return mat


def _stack_effects(effects) -> tuple[np.ndarray, np.ndarray]:
    """The (N, d, d) effect stack and the N log scales of ``effects``.

    An EffectBatch hands over its own read-only arrays without copying.
    Anything else is read as one complex array of shape (N, d, d), a
    list of matrices included, with log_c = 0; its Hermitian parts are
    checked together by ``_check_positive`` and need not have unit trace.
    """
    if isinstance(effects, EffectBatch):
        return effects.effects, effects.log_c
    try:
        e = np.asarray(effects, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"effects must be an EffectBatch or one (N, d, d) array: {exc}"
        ) from None
    if e.shape[:1] == (0,):
        return np.zeros((0, 0, 0), dtype=complex), np.zeros(0)
    if e.ndim != 3 or e.shape[1] != e.shape[2]:
        raise DimensionMismatch(f"expected (N, d, d) effects, got {e.shape}")
    _check_positive(_hermitian(e), lambda k: f"effect {k}")
    return e, np.zeros(len(e))


# ---------------------------------------------------------------------------
# batched paths
# ---------------------------------------------------------------------------


def _indices(values, span: int | None, *, adjoint: bool) -> list[int]:
    """The start indices (``adjoint``) or time indices of a pass, in order.

    Refused by name when one is not an integer or lies outside the
    record span: a start s, the first step of a suffix, needs 0 <= s <
    span; a time k, the number of steps conditioned on, 0 <= k <= span.
    A span of None, that of an empty batch, bounds nothing.
    """
    what, end = ("start", f"{span})") if adjoint else ("time", f"{span}]")
    out = [_integer(v, f"{what} index") for v in values]
    for k in out:
        if span is not None and not 0 <= k < span + (not adjoint):
            raise ValueError(f"{what} index {k} outside the record span [0, {end}")
    return out


def _checked(model, records) -> tuple[RecordBatch, Callable]:
    """The batch of ``records`` and its step inputs, as the
    ``inputs(t, flat)`` that ``_propagate`` reads; raises the first
    problem the model finds in its records."""
    batch = RecordBatch.from_records(records)
    inputs, problems = model._read(batch)
    if problems:
        raise problems[0]
    return batch, lambda t, _: inputs[:, t]


def _floor(traces, t: int, ids, where: str = "at") -> None:
    """Refuse the step-t traces of the records ``ids`` unless each is above
    ``PROB_FLOOR`` (NaN is not): ZeroProbability names the record with the
    smallest, and the step as ``{where} step {t}``."""
    bad = int(np.argmin(traces))
    if not traces[bad] > PROB_FLOOR:
        p = float(traces[bad])
        raise ZeroProbability(
            f"record {ids[bad]} has probability {p!r} {where} step {t}",
            step=t,
            record_id=int(ids[bad]),
        )


def _live(model, start, *, adjoint: bool, channels=()) -> np.ndarray:
    """The sorted coordinates that a pass from the d x d Hermitian ``start``
    can make nonzero: those of start, closed under the exact nonzero
    pattern of every block of the model's step maps in the pass direction
    and of the maps ``channels`` on coordinate rows (interventions,
    forward).  Every other coordinate of every row stays exactly zero, so
    the pass drops it."""
    k = model.dim**2
    pattern = np.zeros((k, k), bool)
    for m in (*model._expansion(adjoint=adjoint)[1], *channels):
        pattern |= (m != 0).reshape(k, -1, k).any(axis=1)
    return np.flatnonzero(_closure(pattern, _coords(start) != 0))


def _weights(model, live):
    """The schedule of ``model._expansion`` and, per distinct step, the
    sampler's (live, M) weight columns: the coordinates of K_m*(I), whose
    products with state rows give the M coefficients tr(X K_m*(I)) of the
    step trace tr K(X) = sum_m phi_m tr(X K_m*(I))."""
    schedule, maps = model._expansion(adjoint=True)
    eye, k = _coords(np.eye(model.dim)), model.dim**2
    return schedule, [(eye @ m).reshape(-1, k)[:, live].T for m in maps]


def _propagate(
    model, inputs, lengths, ids, start, log_c: float, live, *, adjoint: bool, keep=()
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The one batched pass: records ids[n], of lengths[n] steps, from one start.

    Every record starts from the d x d Hermitian ``start`` with log scale
    ``log_c``, carried as a row of real coordinates in the basis of
    ``operators._basis``, cut to the sorted coordinates ``live`` that
    ``_live`` finds for the pass; its trace is the sum of the live ones
    among the first d.  The steps run over the longest record, the last
    first when ``adjoint``.  Step t maps the rows of the records with more
    than t steps to those of the unnormalized K(X), or K*(X): one product
    with the step's stacked map of ``model._expansion``, cut to ``live``
    once, gives each row's M blocks, which ``model._combine`` reduces to
    one by the row's outcome code or increments of ``inputs(t, flat)``,
    where ``flat`` holds every row.  ``model._trace_check``, when set,
    vets their traces; each row is divided by its trace and the log trace
    added to its log scale.  A trace not above ``PROB_FLOOR`` (NaN
    included) raises ZeroProbability naming the record and the step.

    Steps are labelled by the time index they reach, t adjoint and t + 1
    forward, with 0 the forward start.  Returns, for each label of
    ``keep`` (checked by ``_indices``) in its order, the (n, d, d)
    matrices, the log scales and the ids of the records that cover it.
    """
    dim, n = model.dim, len(ids)
    span = int(lengths.max(initial=0))
    wanted = dict.fromkeys(_indices(keep, span if n else None, adjoint=adjoint))
    if not n:
        return {k: (np.zeros((0, dim, dim), complex), np.zeros(0), ids) for k in wanted}
    schedule, maps = model._expansion(adjoint=adjoint)
    k, width = dim * dim, len(live)
    maps = [m[np.ix_(live, (np.arange(m.shape[1] // k)[:, None] * k + live).ravel())]
            for m in maps]
    check = model._trace_check
    flat, log_c = np.tile(_coords(start)[live], (n, 1)), np.full(n, log_c)
    diag = np.count_nonzero(live < dim)  # the live diagonal coordinates lead
    shortest, snaps = lengths.min(), {}
    if not adjoint and 0 in wanted:
        snaps[0] = (flat.copy(), log_c.copy(), ids)
    for t in range(span - 1, -1, -1) if adjoint else range(span):
        act = slice(None) if shortest > t else lengths > t
        on = ids[act]
        y = inputs(t, flat)[act]
        x = flat[act]
        new = model._combine(y, (x @ maps[schedule[t]]).reshape(len(x), -1, width))
        traces = new[:, :diag].sum(axis=1)
        if check is not None:
            check(traces, t, on)
        _floor(traces, t, on)
        new /= traces[:, None]
        flat[act] = new
        log_c[act] += np.log(traces)
        label = t if adjoint else t + 1
        if label in wanted:
            snaps[label] = (flat[act].copy(), log_c[act].copy(), on)
    # matrices are made once the pass is over, each block of rows freed as it
    # is converted: made between the step temporaries they fragmented the heap
    # and raised the peak RSS of fluorescence_cli by 1.6 MiB
    return {k: (_matrices(_scatter(snaps[k][0], live, dim)), *snaps.pop(k)[1:])
            for k in wanted}


def _scatter(rows: np.ndarray, live, dim: int) -> np.ndarray:
    """Rows of coordinates at ``live`` as rows of all dim^2 coordinates."""
    full = np.zeros((len(rows), dim * dim))
    full[:, live] = rows
    return full


def backward_sweep_batch(
    model,
    records,
    start_indices: Sequence[int] = (0,),
    *,
    threads: int | None = None,
) -> dict[int, EffectBatch]:
    """Adjoint results for several record suffixes over a whole batch.

    ``model`` is a KrausFamily with discrete records or an SMEModel with
    signal records, given as a RecordBatch or a sequence of record views.
    Every record runs back from its last step in one masked pass, from
    the maximally mixed effect I/dim with log_c = log(dim).  Records may
    differ in length: the effects at start s are those of the records
    longer than s, in record order.  Each start must be an integer
    before the end of the longest record.  ``threads`` is accepted for
    older callers and ignored.
    """
    batch, inputs = _checked(model, records)
    start = np.eye(model.dim) / model.dim
    snaps = _propagate(
        model, inputs, batch.lengths, batch.record_ids, start, math.log(model.dim),
        _live(model, start, adjoint=True), adjoint=True, keep=start_indices,
    )
    # each stack is released once its batch holds the checked copy
    return {s: EffectBatch(*snaps.pop(s), start=s) for s in list(snaps)}


def forward_batch(model, records, rho0, at: Sequence[int]) -> dict[int, np.ndarray]:
    """Conditional states of many records at selected times, batched.

    ``model`` and ``records`` pair as in ``backward_sweep_batch``.
    ``at`` holds step counts: entry k means the state after conditioning
    on steps 0..k-1, so 0 is the initial state rho0.  Records may differ
    in length: the states after k steps are those of the records with at
    least k steps, in record order, and k must be an integer no larger
    than the longest record.  Returns arrays of shape (n, dim, dim) per
    requested time.
    """
    batch, inputs = _checked(model, records)
    rho = _initial_state(model, rho0).matrix
    snaps = _propagate(
        model, inputs, batch.lengths, batch.record_ids, rho, 0.0,
        _live(model, rho, adjoint=False), adjoint=False, keep=at,
    )
    return {k: states for k, (states, _, _) in snaps.items()}


def sample_records(
    model,
    rho0,
    n_records: int,
    rng_seed: int,
    *,
    interventions: Mapping[int, np.ndarray] | None = None,
) -> RecordBatch:
    """Draw measurement records from the model's own outcome law.

    ``model`` is a KrausFamily, which draws outcome labels, or an
    SMEModel, which draws signal increments from the exact tilted
    Gaussian law of its steps.  ``n_records`` (an integer, at least one)
    trajectories start at rho0 and run the model's n_steps in the
    forward pass of ``forward_batch``, each step drawn from the current
    states and then conditioned on.  ``interventions`` optionally maps a
    step index to a (dim^2, dim^2) channel acting on row-major vec(rho),
    applied to all trajectories just before that step (state
    preparation events inside a record).

    Returns the records as a RecordBatch.
    """
    n_records = _integer(n_records, "n_records", 1)
    rng = np.random.default_rng(_integer(rng_seed, "rng_seed", 0))
    dim, total = model.dim, model.n_steps
    channels = {}
    for t, sup in (interventions or {}).items():
        t = _integer(t, "intervention step")
        if not 0 <= t < total:
            raise ValueError(
                f"intervention at step {t} lies outside the model's steps [0, {total})"
            )
        sup = np.asarray(sup, dtype=complex)
        if sup.shape != (dim * dim, dim * dim):
            raise DimensionMismatch(
                f"intervention at step {t} has shape {sup.shape}, the model needs "
                f"{(dim * dim, dim * dim)}"
            )
        if not np.isfinite(sup).all():
            raise ValueError(f"intervention at step {t} is not finite")
        channels[t] = _real_map(sup).T
    rho = _initial_state(model, rho0).matrix
    live = _live(model, rho, adjoint=False, channels=channels.values())
    channels = {t: c[np.ix_(live, live)] for t, c in channels.items()}
    diag = np.count_nonzero(live < dim)
    schedule, weights = _weights(model, live)
    step_draw, data, kind = model._sampler(rng, n_records)
    lengths, ids = np.full(n_records, total), np.arange(n_records)

    def draw(t, flat):
        if t in channels:
            flat[:] = flat @ channels[t]
            traces = flat[:, :diag].sum(axis=1)
            _floor(traces, t, ids, "after the intervention at")
            flat /= traces[:, None]
        return step_draw(t, flat @ weights[schedule[t]])

    _propagate(model, draw, lengths, ids, rho, 0.0, live, adjoint=False)
    return RecordBatch(data, lengths, ids, **kind)

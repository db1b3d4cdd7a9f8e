"""The RecordBatch container: views, checks, one rule set, equivalence."""
import re

import numpy as np
import pytest

import trajtomo
from conftest import random_family
from trajtomo import (
    ContinuousRecord,
    DiscreteRecord,
    RecordBatch,
    UnknownOutcome,
    backward_sweep,
    backward_sweep_batch,
    build_fluorescence_model,
    build_qnd_family,
    forward_batch,
    forward_run,
    from_bloch,
    injection_channel,
    sample_records,
    thermal_state,
)
from trajtomo.io import instantiate_model, validate_records, write_records

PLUS = from_bloch((1.0, 0.0, 0.0))


def test_sampler_batch_holds_codes_and_hands_out_views():
    rng = np.random.default_rng(5)
    fam = random_family(rng, 2, 6)
    batch = sample_records(fam, np.eye(2) / 2, 5, rng_seed=3)
    assert isinstance(batch, RecordBatch) and len(batch) == 5
    assert batch.data.shape == (5, 6) and batch.data.dtype == np.int8
    assert batch.labels == ("y0", "y1") and batch.dt is None
    assert batch.lengths.tolist() == [6] * 5
    assert batch.record_ids.tolist() == list(range(5))
    for arr in (batch.data, batch.lengths, batch.record_ids):
        assert not arr.flags.writeable
    views = list(batch)
    assert all(isinstance(v, DiscreteRecord) for v in views)
    assert views[2].outcomes == tuple(batch.labels[c] for c in batch.data[2])
    assert batch[-1] == views[-1]
    again = RecordBatch.from_records(views)
    assert [(r.id, r.outcomes) for r in again] == [(r.id, r.outcomes) for r in views]
    assert RecordBatch.from_records(batch) is batch


def test_slices_are_sub_batches_trimmed_to_their_longest_record():
    recs = [DiscreteRecord(4, ("a", "b", "a")), DiscreteRecord(9, ("b",)),
            DiscreteRecord(2, ("c", "a"))]
    batch = RecordBatch.from_records(recs)
    assert batch.labels == ("a", "b", "c")
    assert batch.data.tolist() == [[0, 1, 0], [1, -1, -1], [2, 0, -1]]
    tail = batch[1:]
    assert isinstance(tail, RecordBatch)
    assert tail.data.shape == (2, 2) and tail.record_ids.tolist() == [9, 2]
    assert list(tail) == recs[1:]
    long, short = np.ones((3, 2)), np.ones((1, 2))
    signals = RecordBatch.from_records(
        [ContinuousRecord(0, 0.5, long), ContinuousRecord(1, 0.5, short)]
    )
    assert signals.dt == 0.5 and signals.data.shape == (2, 3, 2)
    assert np.array_equal(signals.data[1, 1:], np.zeros((2, 2)))
    assert signals[1:].data.shape == (1, 1, 2)
    assert np.array_equal(signals[0].increments, np.ones((3, 2)))


def test_constructor_rejects_malformed_arrays():
    ok = dict(
        data=[[0, 1], [1, -1]], lengths=[2, 1], record_ids=[0, 1], labels=("g", "e")
    )
    RecordBatch(**ok)
    for change, error in (
        (dict(data=[[0, 2], [1, -1]]), ValueError),  # code beyond the labels
        (dict(data=[[0, 1], [1, 0]]), ValueError),  # padding is not -1
        (dict(lengths=[2, 0]), ValueError),  # a record without steps
        (dict(lengths=[1, 1]), ValueError),  # data wider than the longest record
        (dict(record_ids=[0]), trajtomo.DimensionMismatch),
        (dict(labels=("g", "g")), ValueError),
        (dict(data=[[0.0, 1.0], [1.0, -1.0]]), ValueError),  # codes must be integers
    ):
        with pytest.raises(error):
            RecordBatch(**{**ok, **change})
    sig = dict(data=np.zeros((1, 2, 1)), lengths=[2], record_ids=[0], dt=0.1)
    RecordBatch(**sig)
    for change in (dict(dt=0.0), dict(labels=("g",)), dict(data=np.ones((1, 3, 1)))):
        with pytest.raises(ValueError):
            RecordBatch(**{**sig, **change})
    with pytest.raises(TypeError):
        RecordBatch.from_records(
            [DiscreteRecord(0, ("g",)), ContinuousRecord(1, 0.1, [[0.0]])]
        )
    with pytest.raises(ValueError, match="record 1: grid step 0.2 s"):
        RecordBatch.from_records(
            [ContinuousRecord(0, 0.1, [[0.0]]), ContinuousRecord(1, 0.2, [[0.0]])]
        )
    # every pass names a record by its id, so two records may not share one
    with pytest.raises(ValueError, match="record id 1 is held by more than one"):
        RecordBatch(np.array([[0], [1]], np.int8), [1, 1], [1, 1], ("g", "e"))
    with pytest.raises(ValueError, match="record id 3 is held by more than one"):
        RecordBatch.from_records([ContinuousRecord(3, 0.1, [[0.0]])] * 2)


@pytest.mark.parametrize("ids, lengths, message", [
    ([2.9, False], [1, 1], "record_ids entry must be an integer, got 2.9"),
    ([2, True], [1, 1], "record_ids entry must be an integer, got True"),
    (np.array([2.0, 3.0]), [1, 1], "record_ids must be integers, got float64"),
    ([0, 1], [1.7, True], "lengths entry must be an integer, got 1.7"),
    ([0, 1], np.array([True, True]), "lengths must be integers, got bool"),
])
def test_constructor_refuses_non_integer_ids_and_lengths(ids, lengths, message):
    # refused rather than truncated to [2 0] or [1 1]
    with pytest.raises(TypeError, match=re.escape(message)):
        RecordBatch(np.array([[0], [1]], np.int8), lengths, ids, ("g", "e"))


@pytest.mark.parametrize("build, error, message", [
    (lambda: ContinuousRecord(2.9, 0.1, [[0.0]]), TypeError,
     "id must be an integer, got 2.9"),
    (lambda: DiscreteRecord(True, ("g",)), TypeError, "id must be an integer, got True"),
    (lambda: ContinuousRecord(0, True, [[0.0]]), TypeError,
     "dt must be a number, got True"),
    (lambda: trajtomo.SMEModel(np.zeros((2, 2)), (), True, 3), TypeError,
     "dt must be a number, got True"),
    (lambda: RecordBatch(np.zeros((1, 1, 1)), [1], [0], dt=True), TypeError,
     "dt must be a number, got True"),
    (lambda: trajtomo.EffectBatch(np.full((2, 2, 2), 0.5), [0.0, 0.0], [2.9, True]),
     TypeError, "record_ids entry must be an integer, got 2.9"),
], ids=["signal id", "discrete id", "record dt", "model dt", "batch dt", "effect ids"])
def test_views_and_effects_refuse_ids_and_dt_they_would_convert(build, error, message):
    # refused rather than kept as 2.9 or True, taken as dt 1.0, or truncated to [2 1]
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_empty_batch_builds_from_empty_float_arrays():
    for empty in ((), np.asarray(())):  # np.asarray(()) is float64
        batch = RecordBatch(np.zeros((0, 0), np.int8), empty, empty)
        assert len(batch) == 0 and batch.record_ids.dtype.kind == "i"


def _qnd_injection(seed):
    # the benchmark's photon-counting shape: 250 records of 2 500 steps with
    # an injection before step 1 000, at its 22 start times
    fam = build_qnd_family(2_500, t_cavity=65e-3, n_bath=0.06, step_time=86e-6)
    background = thermal_state(fam.dim, 0.06)
    batch = sample_records(
        fam, background, 250, seed, interventions={1_000: injection_channel(fam.dim)}
    )
    rel = [-1.3, -1.0, -0.75, -0.5, -0.3, -0.15] + [0.1 * k for k in range(16)]
    starts = [1_000 + round(r * 65e-3 / 86e-6) for r in rel]
    return fam, batch, background, starts


def _fluorescence_cli(seed):
    # the command-line benchmark's shape: 2 000 records of 46 steps, 26 starts
    model = build_fluorescence_model()
    return model, sample_records(model, PLUS, 2_000, seed), PLUS, range(26)


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("shape", [_qnd_injection, _fluorescence_cli],
                         ids=["qnd_injection", "fluorescence_cli"])
def test_sampler_batch_and_its_views_give_identical_outputs(shape, seed, tmp_path):
    model, batch, rho0, starts = shape(seed)
    views = list(batch)
    for run in (
        lambda recs: backward_sweep_batch(model, recs, starts),
        lambda recs: forward_batch(model, recs, rho0, starts),
    ):
        got, want = run(batch), run(views)
        assert list(got) == list(want)
        for t in got:
            if isinstance(got[t], np.ndarray):
                assert got[t].tobytes() == want[t].tobytes()
                continue
            for name in ("effects", "log_c", "record_ids"):
                a, b = getattr(got[t], name), getattr(want[t], name)
                assert a.tobytes() == b.tobytes()
    archives = [tmp_path / "batch.jsonl", tmp_path / "views.jsonl"]
    write_records(archives[0], batch)
    write_records(archives[1], views)
    assert archives[0].read_bytes() == archives[1].read_bytes()


def _named(message):
    """(record id, step or None) that a problem message names."""
    record = re.search(r"record (\d+)", message)
    step = re.search(r"at step (\d+)", message)
    return int(record.group(1)), step and int(step.group(1))


def _discrete_case(bad):
    desc = {"kind": "qnd", "parameters": {"n_steps": 4, "n_max": 3}}
    fam = instantiate_model(desc)
    good = DiscreteRecord(3, ("g", "e", "g"))
    return desc, fam, [good, bad], {"record_type": "discrete"}


def _signal_case(records):
    desc = {"kind": "fluorescence", "parameters": {"n_steps": 4}}
    return desc, instantiate_model(desc), records, {"record_type": "continuous"}


DT = build_fluorescence_model(n_steps=4).dt


def _signals(*shapes, dt=DT):
    """Zero signal records with ids and (steps, channels) shapes."""
    return [ContinuousRecord(i, dt, np.zeros(shape)) for i, shape in shapes]


RULE_CASES = {
    "unknown label": (
        _discrete_case(DiscreteRecord(7, ("g", "g", "up"))), UnknownOutcome, (7, 2)
    ),
    "too many outcomes": (
        _discrete_case(DiscreteRecord(7, ("g",) * 5)), ValueError, (7, None)
    ),
    "too many steps": (
        _signal_case(_signals((3, (4, 2)), (7, (6, 2)))), ValueError, (7, None)
    ),
    # grid step and channel count are shared by a batch, so they are one
    # problem, named after the first record
    "wrong grid": (
        _signal_case(_signals((5, (4, 2)), (7, (4, 2)), dt=3 * DT)),
        ValueError,
        (5, None),
    ),
    "wrong channel count": (
        _signal_case(_signals((5, (4, 1)), (7, (4, 1)))), ValueError, (5, None)
    ),
}


@pytest.mark.parametrize("case", list(RULE_CASES))
def test_validation_and_the_passes_apply_one_rule_set(case):
    (desc, model, records, meta), error, named = RULE_CASES[case]
    problems = validate_records(desc, model, meta, records)
    assert problems and _named(problems[0]) == named
    rho = np.eye(model.dim) / model.dim
    # the named record alone breaks the step-by-step references the same way
    [bad] = [r for r in records if r.id == named[0]]
    runs = [lambda: backward_sweep(model, bad, (0,)), lambda: forward_run(model, bad, rho)]
    for recs in (records, RecordBatch.from_records(records)):
        runs += [
            lambda recs=recs: backward_sweep_batch(model, recs),
            lambda recs=recs: forward_batch(model, recs, rho, (0,)),
        ]
    for run in runs:
        with pytest.raises(error) as info:
            run()
        assert _named(str(info.value)) == named
        assert str(info.value) == problems[0]


REMOVED = (
    "forward_step", "backward_step", "backward_batch", "FilterTrace", "HermitianBasis",
    "hermitian_basis", "tangent_project", "frobenius", "InvalidProjector", "SolveOptions",
    "Tolerances", "DEFAULT", "backward_run", "backward_continuous",
    "backward_continuous_batch", "forward_filter", "forward_filter_batch",
    "simulate_sme", "cp_map_continuous", "adjoint_cp_map_continuous", "build_m",
    "gradient_bloch", "lambda_bloch", "stack_effects", "HermitianOperator",
    "EffectMatrix", "pauli_combination", "kraus_to_superop", "pauli_povm",
    "tangent_basis",
)


def test_public_names_resolve_once_and_removed_names_are_gone():
    names = trajtomo.__all__
    assert len(names) == len(set(names)) == 58
    for name in names:
        getattr(trajtomo, name)
    for name in REMOVED:
        assert name not in names and not hasattr(trajtomo, name)
    # FilterTrace stays as a return type
    assert type(trajtomo.forward_run(
        trajtomo.povm_family({"g": np.diag([1.0, 0.0]), "e": np.diag([0.0, 1.0])}),
        DiscreteRecord(0, ("g",)), np.eye(2) / 2,
    )).__name__ == "FilterTrace"

"""Forward filtering, backward compression, and batch equivalence."""
import math
import warnings

import numpy as np
import pytest

from conftest import random_density, random_family, suffix
from trajtomo import (
    AdjointResult,
    ContinuousRecord,
    DensityMatrix,
    DimensionMismatch,
    DiscreteRecord,
    EffectBatch,
    KrausFamily,
    UnknownOutcome,
    ZeroProbability,
    backward_sweep,
    backward_sweep_batch,
    build_fluorescence_model,
    build_qnd_family,
    forward_batch,
    forward_run,
    injection_channel,
    log_likelihood,
    sample_records,
    thermal_state,
)
import trajtomo.filtering
from trajtomo.filtering import _stack_effects

PROJECTIVE = {
    "g": [np.diag([1.0, 0.0]).astype(complex)],
    "e": [np.diag([0.0, 1.0]).astype(complex)],
}

IDENTITY_STEP = {"only": [np.eye(2, dtype=complex)]}


def naive_log_prob(family, record, rho):
    """Reference likelihood: compose unnormalized maps, then take the trace."""
    mat = np.asarray(rho, dtype=complex)
    for t, y in enumerate(record.outcomes):
        mat = sum(m @ mat @ m.conj().T for m in family.operators(t, y))
    return math.log(mat.trace().real)


def test_record_needs_outcomes():
    with pytest.raises(ValueError):
        DiscreteRecord(0, ())
    assert len(DiscreteRecord(0, ("g", "e"))) == 2


def test_forward_run_states_are_one_read_only_array():
    # bit for bit the matrices of one DensityMatrix per step
    fluorescence = build_fluorescence_model(n_steps=8)
    qnd = build_qnd_family(6, n_max=3)
    for model, rho in ((fluorescence, np.array([[0.5, 0.5], [0.5, 0.5]])),
                       (qnd, thermal_state(4, 0.3).matrix)):
        rec = sample_records(model, rho, 1, rng_seed=5)[0]
        states = forward_run(model, rec, rho).states
        assert states.shape == (len(rec) + 1, model.dim, model.dim)
        assert not states.flags.writeable
        start = DensityMatrix(rho).matrix
        steps = trajtomo.filtering._step_by_step(model, rec, start, adjoint=False)
        want = [start] + [DensityMatrix(x).matrix for _, x, _ in steps]
        assert np.array_equal(states, want)


def test_forward_identity_family():
    fam = KrausFamily.repeated(2, IDENTITY_STEP, 5)
    rho = np.diag([0.3, 0.7])
    trace = forward_run(fam, DiscreteRecord(0, ("only",) * 5), rho)
    assert trace.log_prob == pytest.approx(0.0, abs=1e-14)
    assert all(p == pytest.approx(1.0, abs=1e-14) for p in trace.step_probs)
    assert np.abs(trace.states[-1] - rho).max() < 1e-14


def test_forward_projective_example():
    fam = KrausFamily.repeated(2, PROJECTIVE, 3)
    trace = forward_run(fam, DiscreteRecord(0, ("g", "g", "g")), np.diag([0.3, 0.7]))
    assert trace.log_prob == pytest.approx(math.log(0.3), abs=1e-12)
    assert np.abs(trace.states[-1] - np.diag([1.0, 0.0])).max() < 1e-14
    assert trace.step_probs[0] == pytest.approx(0.3)
    assert trace.step_probs[1] == pytest.approx(1.0)


def test_forward_zero_probability_metadata():
    fam = KrausFamily.repeated(2, PROJECTIVE, 3)
    with pytest.raises(ZeroProbability) as info:
        forward_run(fam, DiscreteRecord(7, ("g", "e")), np.diag([1.0, 0.0]))
    assert info.value.step == 1
    assert info.value.record_id == 7


def test_forward_matches_naive_product():
    rng = np.random.default_rng(101)
    for dim in (2, 3, 4):
        for _ in range(5):
            fam = random_family(rng, dim, 8, n_outcomes=3, ops_per_outcome=2)
            outcomes = tuple(
                fam.outcomes(t)[rng.integers(3)] for t in range(8)
            )
            rec = DiscreteRecord(0, outcomes)
            rho = random_density(rng, dim)
            got = forward_run(fam, rec, rho).log_prob
            want = naive_log_prob(fam, rec, rho)
            assert got == pytest.approx(want, rel=1e-9)


def test_log_prob_is_concave_in_the_state():
    rng = np.random.default_rng(102)
    fam = random_family(rng, 3, 6, n_outcomes=2)
    rec = DiscreteRecord(0, tuple(fam.outcomes(t)[0] for t in range(6)))
    for _ in range(10):
        a, b = random_density(rng, 3), random_density(rng, 3)
        lam = rng.random()
        mix = lam * a + (1.0 - lam) * b
        f_mix = forward_run(fam, rec, mix).log_prob
        f_sum = lam * forward_run(fam, rec, a).log_prob
        f_sum += (1.0 - lam) * forward_run(fam, rec, b).log_prob
        assert f_mix >= f_sum - 1e-10


def test_backward_identity_family():
    fam = KrausFamily.repeated(3, {"only": [np.eye(3, dtype=complex)]}, 4)
    adj = backward_sweep(fam, DiscreteRecord(0, ("only",) * 4), (0,))[0]
    assert np.abs(adj.effect.matrix - np.eye(3) / 3.0).max() < 1e-14
    assert adj.log_c == pytest.approx(math.log(3.0), abs=1e-14)


def test_backward_effect_is_normalized_and_psd():
    rng = np.random.default_rng(103)
    fam = random_family(rng, 4, 10, n_outcomes=2, ops_per_outcome=2)
    outcomes = tuple(fam.outcomes(t)[int(rng.integers(2))] for t in range(10))
    adj = backward_sweep(fam, DiscreteRecord(0, outcomes), (0,))[0]
    w = np.linalg.eigvalsh(adj.effect.matrix)
    assert w.min() >= -1e-12
    assert np.trace(adj.effect.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_forward_backward_duality():
    rng = np.random.default_rng(104)
    for dim in (2, 3, 5):
        fam = random_family(rng, dim, 12, n_outcomes=3)
        outcomes = tuple(fam.outcomes(t)[int(rng.integers(3))] for t in range(12))
        rec = DiscreteRecord(0, outcomes)
        adj = backward_sweep(fam, rec, (0,))[0]
        for _ in range(20):
            rho = random_density(rng, dim)
            fwd = forward_run(fam, rec, rho).log_prob
            bwd = adj.log_c + math.log(
                np.trace(rho @ adj.effect.matrix).real
            )
            assert abs(fwd - bwd) <= 1e-8


def test_povm_counting_likelihood():
    # single-step two-outcome shots reduce to a product of multinomials
    fam = KrausFamily.repeated(2, PROJECTIVE, 1)
    rho = np.diag([0.25, 0.75])
    counts = {"g": 13, "e": 37}
    total = 0.0
    for y, n in counts.items():
        for i in range(n):
            total += forward_run(fam, DiscreteRecord(i, (y,)), rho).log_prob
    want = counts["g"] * math.log(0.25) + counts["e"] * math.log(0.75)
    assert total == pytest.approx(want, rel=1e-12)


def test_backward_sweep_matches_suffix_runs():
    rng = np.random.default_rng(105)
    fam = random_family(rng, 3, 9, n_outcomes=2)
    outcomes = tuple(fam.outcomes(t)[int(rng.integers(2))] for t in range(9))
    rec = DiscreteRecord(0, outcomes)
    sweep = backward_sweep(fam, rec, (0, 3, 7))
    for s in (0, 3, 7):
        tail = backward_sweep(suffix(fam, s), DiscreteRecord(0, outcomes[s:]), (0,))[0]
        assert np.abs(sweep[s].effect.matrix - tail.effect.matrix).max() < 1e-12
        assert sweep[s].log_c == pytest.approx(tail.log_c, abs=1e-10)


def test_log_likelihood_helper():
    rng = np.random.default_rng(106)
    fam = random_family(rng, 2, 5)
    recs = [
        DiscreteRecord(i, tuple(fam.outcomes(t)[int(rng.integers(2))] for t in range(5)))
        for i in range(6)
    ]
    adjs = [backward_sweep(fam, r, (0,))[0] for r in recs]
    rho = random_density(rng, 2)
    want = sum(forward_run(fam, r, rho).log_prob for r in recs)
    got = sum(a.log_c for a in adjs) + log_likelihood(
        rho, [a.effect.matrix for a in adjs]
    )
    assert got == pytest.approx(want, rel=1e-10)
    # outside the support of some effect the sentinel is minus infinity
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert log_likelihood(pure, [np.diag([0.0, 1.0])]) == -math.inf


def test_stack_effects_reads_one_stack():
    rng = np.random.default_rng(107)
    fam = random_family(rng, 2, 3)
    rec = DiscreteRecord(0, tuple(fam.outcomes(t)[0] for t in range(3)))
    adj = backward_sweep(fam, rec, (0,))[0]
    mat = adj.effect.matrix
    e, logc = _stack_effects([mat, mat, 2.0 * mat])
    assert e.shape == (3, 2, 2) and np.array_equal(e, [mat, mat, 2.0 * mat])
    assert np.array_equal(logc, np.zeros(3))
    # a plain effect is checked at its own index
    with pytest.raises(ValueError, match="effect 2 is not positive semidefinite"):
        _stack_effects([mat, mat, np.diag([1.5, -0.5])])
    # per-record objects are not matrices: only an EffectBatch carries log_c
    for effects in ([adj], [adj.effect], [mat, adj.effect]):
        with pytest.raises(TypeError):
            _stack_effects(effects)
    with pytest.raises(TypeError):
        log_likelihood(np.eye(2) / 2, [adj.effect])


def test_effect_batch_is_an_array_view_with_per_record_access():
    rng = np.random.default_rng(111)
    fam = random_family(rng, 2, 4)
    recs = [
        DiscreteRecord(
            10 + i, tuple(fam.outcomes(t)[int(rng.integers(2))] for t in range(4))
        )
        for i in range(5)
    ]
    batch = backward_sweep_batch(fam, recs, (0,))[0]
    assert isinstance(batch, EffectBatch) and len(batch) == 5
    assert batch.effects.shape == (5, 2, 2) and batch.log_c.shape == (5,)
    assert list(batch.record_ids) == [r.id for r in recs]
    assert not batch.effects.flags.writeable
    e, logc = _stack_effects(batch)
    assert e is batch.effects and logc is batch.log_c
    adj = batch[-1]
    assert isinstance(adj, AdjointResult)
    assert np.array_equal(adj.effect.matrix, batch.effects[4])
    assert adj.log_c == batch.log_c[4]
    assert [a.log_c for a in batch] == list(batch.log_c)


def test_effect_batch_positivity_error_names_record_and_start():
    good = np.eye(2) / 2
    bad = np.array([[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(
        ValueError, match="record 9 from start index 4 is not positive semidefinite"
    ):
        EffectBatch(np.stack([good, bad]), [0.0, 0.0], [3, 9], start=4)


def test_effect_batch_rejects_non_finite_values():
    good = np.eye(2) / 2
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="record 9 from start index 4 is not finite"):
        EffectBatch(np.stack([good, nan]), [0.0, 0.0], [3, 9], start=4)
    with pytest.raises(ValueError, match="record 3 from start index 0 is not finite"):
        EffectBatch(np.stack([good, good]), [math.inf, 0.0], [3, 9])


def test_backward_batch_matches_scalar():
    rng = np.random.default_rng(108)
    fam = random_family(rng, 3, 7, n_outcomes=3)
    recs = [
        DiscreteRecord(
            i, tuple(fam.outcomes(t)[int(rng.integers(3))] for t in range(7))
        )
        for i in range(12)
    ]
    batch = backward_sweep_batch(fam, recs, (0,))[0]
    for rec, adj in zip(recs, batch):
        single = backward_sweep(fam, rec, (0,))[0]
        assert np.abs(adj.effect.matrix - single.effect.matrix).max() < 1e-12
        assert adj.log_c == pytest.approx(single.log_c, abs=1e-10)


def mixed_records(rng, fam, n, shortest, longest, n_labels=2):
    """Records of random lengths in [shortest, longest], random outcomes."""
    recs = []
    for i in range(n):
        length = int(rng.integers(shortest, longest + 1))
        labels = [fam.outcomes(t)[int(rng.integers(n_labels))] for t in range(length)]
        recs.append(DiscreteRecord(i, tuple(labels)))
    return recs


def test_backward_batch_mixed_lengths():
    rng = np.random.default_rng(109)
    fam = random_family(rng, 2, 8)
    recs = mixed_records(rng, fam, 9, 2, 8)
    assert len({len(r) for r in recs}) > 1
    batch = backward_sweep_batch(fam, recs, (0,))[0]
    assert batch.record_ids.tolist() == [r.id for r in recs]
    for rec, adj in zip(recs, batch):
        single = backward_sweep(fam, rec, (0,))[0]
        assert np.abs(adj.effect.matrix - single.effect.matrix).max() < 1e-12
        assert adj.log_c == pytest.approx(single.log_c, rel=1e-12)


def test_backward_sweep_batch_mixed_lengths_matches_scalar_sweep():
    rng = np.random.default_rng(113)
    fam = random_family(rng, 3, 9)
    recs = mixed_records(rng, fam, 11, 3, 9)
    longest = max(len(r) for r in recs)
    starts = (0, 2, 4, longest - 1)
    got = backward_sweep_batch(fam, recs, starts)
    for s in starts:
        covering = [r for r in recs if len(r) > s]
        assert got[s].record_ids.tolist() == [r.id for r in covering]
        for rec, adj in zip(covering, got[s]):
            want = backward_sweep(fam, rec, (s,))[s]
            assert np.abs(adj.effect.matrix - want.effect.matrix).max() < 1e-12
            assert adj.log_c == pytest.approx(want.log_c, rel=1e-12)


def test_forward_batch_mixed_lengths_matches_scalar_filter():
    rng = np.random.default_rng(114)
    fam = random_family(rng, 3, 7)
    rho = random_density(rng, 3)
    recs = mixed_records(rng, fam, 10, 2, 7)
    longest = max(len(r) for r in recs)
    at = (0, 1, 3, longest)
    got = forward_batch(fam, recs, rho, at)
    for k in at:
        covering = [r for r in recs if len(r) >= k]
        assert got[k].shape == (len(covering), 3, 3)
        for state, rec in zip(got[k], covering):
            want = forward_run(fam, rec, rho).states[k]
            assert np.abs(state - want).max() < 1e-12


def test_empty_batches_give_empty_results():
    rho = np.eye(2) / 2
    for model in (KrausFamily.repeated(2, PROJECTIVE, 6), build_fluorescence_model(n_steps=6)):
        sweep = backward_sweep_batch(model, [], (0, 3))
        assert list(sweep) == [0, 3] and sweep[3].effects.shape == (0, 2, 2)
        states = forward_batch(model, [], rho, (0, 2))
        assert list(states) == [0, 2] and states[2].shape == (0, 2, 2)


def test_forward_passes_refuse_an_initial_state_of_another_dimension():
    signals = build_fluorescence_model(n_steps=3)
    for model, rec in (
        (KrausFamily.repeated(2, PROJECTIVE, 3), DiscreteRecord(0, ("g", "e", "g"))),
        (signals, ContinuousRecord(0, signals.dt, np.zeros((3, 2)))),
    ):
        for run in (lambda: forward_run(model, rec, np.eye(3) / 3),
                    lambda: forward_batch(model, [rec], np.eye(3) / 3, (0,))):
            with pytest.raises(DimensionMismatch, match="dimension 3, the model has 2"):
                run()


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
def test_batches_reject_indices_beyond_the_longest_record(mixed):
    fam = KrausFamily.repeated(2, PROJECTIVE, 6)
    recs = [
        DiscreteRecord(0, ("g",) * 4),
        DiscreteRecord(1, ("g",) * (3 if mixed else 4)),
    ]
    rho = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match=r"start index 4 outside .* \[0, 4\)"):
        backward_sweep_batch(fam, recs, (0, 4))
    with pytest.raises(ValueError, match=r"time index 5 outside .* \[0, 4\]"):
        forward_batch(fam, recs, rho, (0, 5))
    # the last valid indices keep the records that reach them
    covering = 1 if mixed else 2
    assert len(backward_sweep_batch(fam, recs, (3,))[3]) == covering
    assert forward_batch(fam, recs, rho, (4,))[4].shape[0] == covering


# each case: a call on a family f, its records r and a state rho, then the
# name and value in the expected message
REFUSED_INDICES = {
    "starts": (lambda f, r, rho: backward_sweep_batch(f, r, [1.7, True]),
               "start index", 1.7),
    "bool start": (lambda f, r, rho: backward_sweep_batch(f, r, [1, True]),
                   "start index", True),
    "scalar start": (lambda f, r, rho: backward_sweep(f, r[0], [2.0]),
                     "start index", 2.0),
    "times": (lambda f, r, rho: forward_batch(f, r, rho, at=[1.7]), "time index", 1.7),
    # an empty batch bounds no index, yet an index must still be an integer
    "empty": (lambda f, r, rho: forward_batch(f, [], rho, at=[0.5]), "time index", 0.5),
    "count": (lambda f, r, rho: sample_records(f, rho, 2.5, 1), "n_records", 2.5),
    "bool count": (lambda f, r, rho: sample_records(f, rho, True, 1), "n_records", True),
    "dimension": (lambda f, r, rho: KrausFamily(2.9, [PROJECTIVE]), "dimension", 2.9),
    "iterations": (lambda f, r, rho: trajtomo.solve_maxlike(
        backward_sweep_batch(f, r)[0], max_iterations=2.5), "max_iterations", 2.5),
    "bool iterations": (lambda f, r, rho: trajtomo.solve_maxlike(
        backward_sweep_batch(f, r)[0], max_iterations=True), "max_iterations", True),
    "samples": (lambda f, r, rho: trajtomo.posterior_variance_mc(
        backward_sweep_batch(f, r)[0], np.eye(2), rho, n_samples=1e5),
        "n_samples", 100000.0),
    "bool seed": (lambda f, r, rho: sample_records(f, rho, 2, True), "rng_seed", True),
    "seed": (lambda f, r, rho: sample_records(f, rho, 2, 2.5), "rng_seed", 2.5),
}


@pytest.mark.parametrize("case", REFUSED_INDICES)
def test_indices_and_counts_are_refused_not_truncated(case):
    call, name, value = REFUSED_INDICES[case]
    fam = KrausFamily.repeated(2, PROJECTIVE, 4)
    recs = [DiscreteRecord(0, ("g",) * 4), DiscreteRecord(1, ("e",) * 4)]
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value}$"):
        call(fam, recs, np.eye(2) / 2)


@pytest.mark.parametrize("call, message", [
    (lambda f: sample_records(f, np.eye(2) / 2, 0, 1),
     "n_records must be at least 1, got 0"),
    (lambda f: sample_records(f, np.eye(2) / 2, 2, -1),
     "rng_seed must be at least 0, got -1"),
    (lambda f: build_fluorescence_model(n_steps=0),
     "n_steps must be at least 1, got 0"),
], ids=["no records", "negative seed", "no steps"])
def test_counts_and_seeds_below_their_least_value_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(KrausFamily.repeated(2, PROJECTIVE, 4))


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
def test_batch_errors_name_the_record_and_step(mixed):
    fam = KrausFamily.repeated(2, PROJECTIVE, 4)
    other = DiscreteRecord(3, ("g",) * (4 if mixed else 2))
    unknown = [other, DiscreteRecord(7, ("g", "x"))]
    with pytest.raises(UnknownOutcome, match=r"'x' of record 7 .* at step 1$"):
        backward_sweep_batch(fam, unknown, (0,))
    with pytest.raises(UnknownOutcome, match=r"'x' of record 7 .* at step 1$"):
        forward_batch(fam, unknown, np.eye(2) / 2, (0,))
    # e then g has zero adjoint trace at step 0; g then e from |g> has zero
    # probability at step 1
    impossible = [other, DiscreteRecord(7, ("e", "g"))]
    with pytest.raises(ZeroProbability, match=r"^record 7 .* at step 0$") as info:
        backward_sweep_batch(fam, impossible, (0,))
    assert (info.value.record_id, info.value.step) == (7, 0)
    with pytest.raises(ZeroProbability, match=r"^record 7 .* at step 1$") as info:
        forward_batch(
            fam, [other, DiscreteRecord(7, ("g", "e"))], np.diag([1.0, 0.0]), (2,)
        )
    assert (info.value.record_id, info.value.step) == (7, 1)


def test_sample_records_zero_probability_names_the_record_and_step(monkeypatch):
    # every outcome probability is 0.3 or 0.7, so a 0.5 floor rejects the first "g"
    monkeypatch.setattr(trajtomo.filtering, "PROB_FLOOR", 0.5)
    fam = KrausFamily.repeated(2, PROJECTIVE, 2)
    message = r"^record \d+ has probability 0\.3\d* at step 0$"
    with pytest.raises(ZeroProbability, match=message):
        sample_records(fam, np.diag([0.3, 0.7]), 50, rng_seed=5)


@pytest.mark.parametrize("channel, error, message", [
    (np.full((4, 4), np.nan), ValueError, r"^intervention at step 1 is not finite$"),
    # X rho with no X on the right takes |g><g| to |e><g|, of trace zero
    (np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2)), ZeroProbability,
     r"^record 0 has probability 0\.0 after the intervention at step 1$"),
], ids=["not finite", "zero trace"])
def test_sample_records_names_a_faulty_intervention(channel, error, message):
    fam = KrausFamily.repeated(2, PROJECTIVE, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message) as info:
            sample_records(fam, np.diag([1.0, 0.0]), 5, 1, interventions={1: channel})
    if error is ZeroProbability:
        assert (info.value.record_id, info.value.step) == (0, 1)


def test_backward_sweep_batch_matches_scalar_sweep():
    rng = np.random.default_rng(110)
    fam = random_family(rng, 2, 6)
    recs = [
        DiscreteRecord(
            i, tuple(fam.outcomes(t)[int(rng.integers(2))] for t in range(6))
        )
        for i in range(10)
    ]
    got = backward_sweep_batch(fam, recs, (0, 2, 5))
    for s in (0, 2, 5):
        for rec, adj in zip(recs, got[s]):
            want = backward_sweep(fam, rec, (s,))[s]
            assert np.abs(adj.effect.matrix - want.effect.matrix).max() < 1e-12
            assert adj.log_c == pytest.approx(want.log_c, abs=1e-10)


def test_qnd_effects_of_an_injection_run_are_exactly_diagonal():
    # the QND steps and the pulse never mix photon-number coherence
    # orders, so effects swept back from the identity keep exact zeros
    fam = build_qnd_family(120)
    records = sample_records(
        fam, thermal_state(8, 0.06), 40, rng_seed=7,
        interventions={60: injection_channel(8)},
    )
    off = ~np.eye(8, dtype=bool)
    for start, batch in backward_sweep_batch(fam, records, (0, 59, 60, 100)).items():
        assert np.all(batch.effects[:, off] == 0), start
        assert np.all(np.diagonal(batch.effects, axis1=1, axis2=2).real > 0)


def test_sample_records_frequencies():
    fam = KrausFamily.repeated(2, PROJECTIVE, 1)
    recs = sample_records(fam, np.diag([0.3, 0.7]), 4000, rng_seed=1)
    freq = sum(r.outcomes[0] == "g" for r in recs) / 4000.0
    # 4 sigma of a Bernoulli(0.3) mean over 4000 draws
    assert abs(freq - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / 4000.0)


def test_sample_records_respects_outcome_law():
    # two-step family: the sampled sequence law must match the filter's
    rng = np.random.default_rng(111)
    fam = random_family(rng, 2, 2)
    rho = random_density(rng, 2)
    recs = sample_records(fam, rho, 6000, rng_seed=2)
    seqs = {}
    for r in recs:
        seqs[r.outcomes] = seqs.get(r.outcomes, 0) + 1
    for seq, count in seqs.items():
        p = math.exp(forward_run(fam, DiscreteRecord(0, seq), rho).log_prob)
        sigma = math.sqrt(p * (1.0 - p) / 6000.0)
        assert abs(count / 6000.0 - p) < 5.0 * sigma + 1e-3


def test_sample_records_interventions():
    # an intervention that swaps the state to |e><e| just before step 1
    fam = KrausFamily.repeated(2, PROJECTIVE, 3)
    kraus = [np.array([[0, 0], [1, 0]], complex), np.array([[0, 0], [0, 1]], complex)]
    superop = sum(np.kron(k, k.conj()) for k in kraus)
    recs = sample_records(
        fam, np.diag([1.0, 0.0]), 50, rng_seed=3, interventions={1: superop}
    )
    for r in recs:
        assert r.outcomes == ("g", "e", "e")
    # an intervention the family never reaches is an error, not a no-op
    for step in (3, -1):
        with pytest.raises(ValueError, match=rf"intervention at step {step} lies"):
            sample_records(fam, np.eye(2) / 2, 5, 3, interventions={step: superop})
    # and so is a step between two steps, which would never match one
    with pytest.raises(TypeError, match="intervention step must be an integer"):
        sample_records(fam, np.eye(2) / 2, 5, 3, interventions={1.5: superop})


def test_sample_records_refuses_an_intervention_of_another_dimension():
    # the one sampler checks interventions for either model type
    message = r"intervention at step 1 has shape \(9, 9\)"
    for model in (KrausFamily.repeated(2, PROJECTIVE, 3),
                  build_fluorescence_model(n_steps=3)):
        with pytest.raises(DimensionMismatch, match=message):
            sample_records(model, np.eye(2) / 2, 5, 3, interventions={1: np.eye(9)})


def test_sample_records_numbers_labels_by_first_appearance_on_a_suffix():
    # the suffix starts on a step whose labels differ from the family's first
    other = {"c": [np.diag([0.0, 1.0]).astype(complex)],
             "d": [np.diag([1.0, 0.0]).astype(complex)]}
    fam = KrausFamily(2, [PROJECTIVE, other, PROJECTIVE, other, other])
    for family, labels in ((fam, ("g", "e", "c", "d")),
                           (suffix(fam, 1), ("c", "d", "g", "e")),
                           (suffix(fam, 3), ("c", "d"))):
        recs = sample_records(family, np.eye(2) / 2, 40, rng_seed=8)
        assert recs.labels == labels
        assert set(recs.data.ravel().tolist()) == set(range(len(labels)))
        for rec in recs:
            assert all(y in family.outcomes(t) for t, y in enumerate(rec.outcomes))
        backward_sweep_batch(family, recs, (0,))


def test_sample_records_mean_tracks_unread_map():
    # ensemble average of conditional states follows the outcome-summed map
    fam = KrausFamily.repeated(2, PROJECTIVE, 1)
    rho = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    recs = sample_records(fam, rho, 20000, rng_seed=4)
    means = [s.mean(axis=0) for s in forward_batch(fam, recs, rho, (0, 1)).values()]
    assert np.abs(means[0] - rho).max() < 1e-12
    unread = sum(
        m @ rho @ m.conj().T for y in fam.outcomes(0) for m in fam.operators(0, y)
    )
    assert np.abs(means[1] - unread).max() < 0.02


def test_forward_batch_matches_scalar_filter():
    rng = np.random.default_rng(112)
    fam = random_family(rng, 3, 5)
    rho = random_density(rng, 3)
    recs = [
        DiscreteRecord(
            i, tuple(fam.outcomes(t)[int(rng.integers(2))] for t in range(5))
        )
        for i in range(8)
    ]
    got = forward_batch(fam, recs, rho, (0, 2, 5))
    for i, rec in enumerate(recs):
        trace = forward_run(fam, rec, rho)
        for s in (0, 2, 5):
            assert np.abs(got[s][i] - trace.states[s]).max() < 1e-12


# A pass carries only the coordinates its start row can reach under the
# exact nonzero pattern of its maps; these tests fail if it drops one it needs.


def test_sampler_reach_counts_the_interventions():
    # steps 0 and 1 read nothing, the second flipping the qubit, and step 2
    # measures Z; the Hadamards before steps 1 and 2 take |0><0| to |+><+|,
    # which the flip keeps, and back.  The steps alone reach both populations
    # but no coherence, so a cut that ignored the Hadamards would draw 50/50.
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], complex) / math.sqrt(2.0)
    superop = np.kron(hadamard, hadamard.conj())
    wait = {"-": [np.eye(2, dtype=complex)]}
    flip = {"-": [np.array([[0.0, 1.0], [1.0, 0.0]], complex)]}
    z = {"0": [np.diag([1.0, 0.0]).astype(complex)],
         "1": [np.diag([0.0, 1.0]).astype(complex)]}
    fam = KrausFamily(2, [wait, flip, z])
    recs = sample_records(
        fam, np.diag([1.0, 0.0]), 200, rng_seed=11,
        interventions={1: superop, 2: superop},
    )
    assert all(rec.outcomes == ("-", "-", "0") for rec in recs)


def test_qnd_forward_batch_from_a_coherent_state_matches_forward_run():
    # off-diagonal coordinates of rho0 are reachable and must be carried
    fam = build_qnd_family(40)
    # a coherent state of mean photon number 1, truncated at 7 photons
    psi = np.array([1.0 / math.sqrt(math.factorial(n)) for n in range(8)])
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    recs = sample_records(fam, rho, 6, rng_seed=12)
    got = forward_batch(fam, recs, rho, range(41))
    for i, rec in enumerate(recs):
        states = forward_run(fam, rec, rho).states
        for t in range(41):
            assert np.abs(got[t][i] - states[t]).max() <= 1e-12, (i, t)
    assert np.abs(got[40][:, 0, 1]).max() > 1e-3  # coherences survive


def test_qnd_injection_batch_sweep_matches_the_single_record_sweep():
    # the qnd_injection workload's model, draw and start times, with the
    # records cut to distinct lengths; checked at its shortest and longest
    t_cavity, step_time = 65e-3, 86e-6
    fam = build_qnd_family(2_500, t_cavity=t_cavity, n_bath=0.06, step_time=step_time)
    full = sample_records(
        fam, thermal_state(8, 0.06), 250, rng_seed=7,
        interventions={1_000: injection_channel(8)},
    )
    lengths = np.random.default_rng(7).permutation(np.arange(2_200, 2_501))[:250]
    recs = [DiscreteRecord(r.id, r.outcomes[:n]) for r, n in zip(full, lengths)]
    relative = [-1.3, -1.0, -0.75, -0.5, -0.3, -0.15] + [0.1 * k for k in range(16)]
    starts = [1_000 + round(r * t_cavity / step_time) for r in relative]
    batch = backward_sweep_batch(fam, recs, starts)
    for i in (int(np.argmin(lengths)), int(np.argmax(lengths))):
        alone = backward_sweep(fam, recs[i], starts)
        for s in starts:
            got, want = batch[s][i], alone[s]
            assert np.abs(got.effect.matrix - want.effect.matrix).max() <= 1e-14
            assert abs(got.log_c - want.log_c) <= 1e-14 * abs(want.log_c)

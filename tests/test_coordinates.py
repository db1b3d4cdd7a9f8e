"""The real Hermitian coordinates that the batched passes run on.

Each step map is checked on its own against the Kraus-form maps, and
whole passes over mixed-length batches against the step-by-step
references, for several Kraus operators per outcome.
"""
import math

import numpy as np
import pytest

from conftest import random_density, random_hermitian, random_step
from trajtomo import (
    Channel,
    ContinuousRecord,
    DiscreteRecord,
    KrausFamily,
    SMEModel,
    apply_adjoint_cp_map,
    apply_cp_map,
    backward_sweep,
    backward_sweep_batch,
    build_fluorescence_model,
    build_qnd_family,
    forward_batch,
    forward_run,
    sample_records,
)
from trajtomo import continuous
from trajtomo.continuous import _superoperators
from trajtomo.filtering import _weights
from trajtomo.operators import _basis, _coords, _matrices, _real_map

DIMS = (2, 3, 8)
TOL = 1e-13


def _scale(x):
    return max(1.0, float(np.abs(x).max()))


@pytest.mark.parametrize("dim", DIMS)
def test_basis_is_orthonormal_and_hermitian(dim):
    b = _basis(dim).reshape(-1, dim, dim)
    assert b.shape == (dim * dim, dim, dim)
    assert np.abs(b - b.conj().transpose(0, 2, 1)).max() == 0.0
    gram = np.einsum("kij,lji->kl", b, b)
    assert np.abs(gram - np.eye(dim * dim)).max() < 1e-15
    # the trace is the sum of the first dim coordinates
    rho = random_density(np.random.default_rng(dim), dim)
    x = _coords(rho)
    assert x[:dim].sum() == pytest.approx(1.0, abs=1e-15)
    assert np.abs(_matrices(x) - rho).max() < 1e-15


@pytest.mark.parametrize("dim", DIMS)
def test_step_maps_are_real_and_reproduce_the_kraus_maps(dim):
    rng = np.random.default_rng(400 + dim)
    step = random_step(rng, dim, n_outcomes=3, ops_per_outcome=3)
    fam = KrausFamily(dim, [step])
    forward = np.hsplit(fam._expansion(adjoint=False)[1][0], 3)
    adjoint = np.hsplit(fam._expansion(adjoint=True)[1][0], 3)
    b = _basis(dim)
    for i, (y, ops) in enumerate(step.items()):
        sup = sum(np.kron(m, m.conj()) for m in ops)
        full = b.conj() @ sup @ b.T
        assert np.abs(full.imag).max() <= TOL * np.linalg.norm(full)
        r = _real_map(sup)
        assert np.array_equal(forward[i], r.T) and np.array_equal(adjoint[i], r)
        for x in (random_hermitian(rng, dim), random_density(rng, dim)):
            want = apply_cp_map(fam, 0, y, x)
            got = _matrices(_coords(x) @ forward[i])
            assert np.abs(got - want).max() <= TOL * _scale(want)
            want = apply_adjoint_cp_map(fam, 0, y, x)
            got = _matrices(_coords(x) @ adjoint[i])
            assert np.abs(got - want).max() <= TOL * _scale(want)


def random_model(rng, dim, n_steps):
    """Two monitored channels and one unmonitored, weak enough for dt."""
    h = random_hermitian(rng, dim)
    ops = [
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / dim
        for _ in range(3)
    ]
    return SMEModel(
        hamiltonian=h / np.linalg.norm(h, 2),
        channels=(Channel(ops[0], 0.7), Channel(ops[1], 1.0), Channel(ops[2], 0.0)),
        dt=1e-3,
        n_steps=n_steps,
    )


@pytest.mark.parametrize("dim", DIMS)
def test_signal_step_maps_reproduce_the_kraus_maps(dim):
    rng = np.random.default_rng(500 + dim)
    model = random_model(rng, dim, 4)
    k = dim * dim
    for adjoint, reference in ((False, apply_cp_map), (True, apply_adjoint_cp_map)):
        right, pairs = _superoperators(model, adjoint=adjoint)
        assert right.dtype == float and right.shape[0] == k
        for x in (random_hermitian(rng, dim), random_density(rng, dim)):
            dy = rng.standard_normal(2) * math.sqrt(model.dt)
            phi = np.concatenate([[1.0], dy, dy[pairs[:, 0]] * dy[pairs[:, 1]]])
            got = _matrices(phi @ (_coords(x) @ right).reshape(-1, k))
            want = reference(model, 0, dy, x)
            assert np.abs(got - want).max() <= TOL * _scale(want)


def check_passes_against_the_references(model, recs, rho, starts, at):
    """Both batched passes over mixed-length records, for either model
    type, against the step-by-step references record by record."""
    sweep = backward_sweep_batch(model, recs, starts)
    for s in starts:
        covering = [r for r in recs if len(r) > s]
        assert sweep[s].record_ids.tolist() == [r.id for r in covering]
        for rec, adj in zip(covering, sweep[s]):
            want = backward_sweep(model, rec, (s,))[s]
            assert np.abs(adj.effect.matrix - want.effect.matrix).max() < 1e-12
            assert adj.log_c == pytest.approx(want.log_c, rel=1e-12, abs=1e-12)
    states = forward_batch(model, recs, rho, at)
    for k in at:
        covering = [r for r in recs if len(r) >= k]
        for state, rec in zip(states[k], covering):
            want = forward_run(model, rec, rho).states[k]
            assert np.abs(state - want).max() < 1e-12


def mixed_outcome_steps(rng, dim):
    """Steps of 1, 2 and 4 outcomes, each passed more than once by identity,
    so the schedule repeats entries and the stacked maps of the distinct
    steps have different widths.  The 1-outcome step is a diagonal unitary,
    whose map alone couples no population to a coherence: a pass that read
    the reach of the first distinct step only would drop the coherences
    that the others make from I/dim."""
    one = {"y0": [np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, dim)))]}
    two, four = (random_step(rng, dim, m, 2) for m in (2, 4))
    return [one, two, four, two, one, two, four]


@pytest.mark.parametrize(
    "dim, outcomes",
    [pytest.param(dim, "three", id=str(dim)) for dim in DIMS]
    + [pytest.param(dim, "mixed", id=f"{dim}-mixed") for dim in DIMS],
)
def test_discrete_passes_on_mixed_lengths_match_the_references(dim, outcomes):
    rng = np.random.default_rng(600 + dim)
    n_steps = 7
    if outcomes == "three":
        steps = [random_step(rng, dim, 3, 2) for _ in range(n_steps)]
    else:
        steps = mixed_outcome_steps(rng, dim)
    fam = KrausFamily(dim, steps)
    rho = random_density(rng, dim)
    lengths = rng.integers(1, n_steps + 1, size=9)
    lengths[0] = n_steps
    recs = [
        DiscreteRecord(r.id, r.outcomes[:n])
        for r, n in zip(sample_records(fam, rho, 9, rng_seed=dim), lengths)
    ]
    check_passes_against_the_references(
        fam, recs, rho, (0, 2, n_steps - 1), (0, 1, 4, n_steps)
    )


@pytest.mark.parametrize("dim", DIMS)
def test_signal_passes_on_mixed_lengths_match_the_references(dim):
    rng = np.random.default_rng(700 + dim)
    n_steps = 6
    model = random_model(rng, dim, n_steps)
    rho = random_density(rng, dim)
    lengths = rng.integers(1, n_steps + 1, size=7)
    lengths[0] = n_steps
    recs = [
        ContinuousRecord(r.id, r.dt, r.increments[:n])
        for r, n in zip(sample_records(model, rho, 7, rng_seed=dim), lengths)
    ]
    check_passes_against_the_references(
        model, recs, rho, (0, 3, n_steps - 1), (0, 2, n_steps)
    )


@pytest.mark.parametrize("dim", DIMS)
def test_sampler_means_match_the_step_by_step_states(dim):
    rng = np.random.default_rng(800 + dim)
    n_steps = 5
    fam = KrausFamily(dim, [random_step(rng, dim, 3, 2) for _ in range(n_steps)])
    rho = random_density(rng, dim)
    channel = random_step(rng, dim, 1, 3)["y0"]
    sup = sum(np.kron(m, m.conj()) for m in channel)
    signals = random_model(rng, dim, n_steps)
    # a reset to sigma before step 0 makes the draws those from sigma itself:
    # the same outcome codes (integers, so the bound below makes them equal),
    # and increments up to the roundoff by which the reset's state
    # coordinates, taken through the channel's real map, differ
    sigma = random_density(rng, dim)
    reset = np.outer(sigma.ravel(), np.eye(dim).ravel())
    for model, n in ((fam, 12), (signals, 6)):
        got = sample_records(model, rho, n, rng_seed=dim, interventions={0: reset})
        want = sample_records(model, sigma, n, rng_seed=dim)
        assert got.labels == want.labels
        assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(want.data).max()
    # with a channel before step 2, each outcome is the first whose cumulative
    # probability reaches the record's uniform, one uniform per record and step
    n = 12
    recs = sample_records(fam, rho, n, rng_seed=dim, interventions={2: sup})
    uniforms = np.random.default_rng(dim)
    states = [rho] * n
    for t in range(n_steps):
        u, ys = uniforms.random(n), fam.outcomes(t)
        for i, rec in enumerate(recs):
            x = states[i]
            if t == 2:
                x = sum(m @ x @ m.conj().T for m in channel)
                x = x / x.trace().real
            images = [apply_cp_map(fam, t, y, x) for y in ys]
            p = np.array([k.trace().real for k in images])
            idx = min(int((np.cumsum(p / p.sum()) < u[i]).sum()), len(ys) - 1)
            assert rec.outcomes[t] == ys[idx]
            states[i] = images[idx] / images[idx].trace().real


def test_outcome_sampler_weighs_each_outcome_by_its_step_trace():
    # the sampler's coefficients are the products of the states' coordinate
    # rows with its weight columns, one column per outcome of step t
    fam = build_qnd_family(4)
    rng = np.random.default_rng(901)
    rhos = np.stack([random_density(rng, fam.dim) for _ in range(5)])
    schedule, weights = _weights(fam, np.arange(fam.dim**2))
    for t in range(fam.n_steps):
        probs = _coords(rhos) @ weights[schedule[t]]
        want = [
            [apply_cp_map(fam, t, y, rho).trace().real for y in fam.outcomes(t)]
            for rho in rhos
        ]
        assert np.abs(probs - want).max() <= TOL


@pytest.mark.parametrize("model", ["fluorescence", "random"])
def test_signal_sampler_draws_from_the_step_trace_quadratic(model, monkeypatch):
    rng = np.random.default_rng(902)
    model = (
        build_fluorescence_model() if model == "fluorescence"
        else random_model(rng, 3, 2)
    )
    k = len(model.monitored)
    seen = []

    def spy(rng, coeffs, pairs, dt):
        seen.append((coeffs, pairs))
        return np.zeros((len(coeffs), k))

    monkeypatch.setattr(continuous, "_draw_increments", spy)
    rhos = np.stack([random_density(rng, model.dim) for _ in range(5)])
    draw, _, _ = model._sampler(np.random.default_rng(0), len(rhos))
    schedule, weights = _weights(model, np.arange(model.dim**2))
    draw(0, _coords(rhos) @ weights[schedule[0]])
    ((coeffs, pairs),) = seen
    a, b, p = coeffs[:, 0], coeffs[:, 1 : k + 1], coeffs[:, k + 1 :]
    for n, rho in enumerate(rhos):
        for _ in range(4):
            dy = rng.standard_normal(k) * 3.0 * math.sqrt(model.dt)
            got = a[n] + b[n] @ dy + p[n] @ (dy[pairs[:, 0]] * dy[pairs[:, 1]])
            want = apply_cp_map(model, 0, dy, rho).trace().real
            assert abs(got - want) <= TOL

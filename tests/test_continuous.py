"""Diffusive monitoring: stochastic Kraus steps, filtering and adjoints."""
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import ndtr, ndtri

import trajtomo.continuous as continuous
from conftest import random_density
from trajtomo import (
    Channel,
    ContinuousRecord,
    DimensionMismatch,
    SMEModel,
    StepSizeTooLarge,
    ZeroProbability,
    apply_adjoint_cp_map,
    apply_cp_map,
    backward_sweep,
    backward_sweep_batch,
    build_fluorescence_model,
    forward_batch,
    forward_run,
    from_bloch,
    lindblad_evolve,
    sample_records,
)

SM = np.array([[0, 0], [1, 0]], dtype=complex)  # lowers |e> (index 0) to |g>
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
EXCITED = np.diag([1.0, 0.0]).astype(complex)
GROUND = np.diag([0.0, 1.0]).astype(complex)


def two_channel_model(dt=1e-3, n_steps=12):
    return SMEModel(
        hamiltonian=0.7 * SZ,
        channels=(
            Channel(SM, efficiency=0.3),
            Channel(0.5 * SZ, efficiency=0.8),
        ),
        dt=dt,
        n_steps=n_steps,
    )


def decay_model(dt, n_steps, efficiency=0.0):
    return SMEModel(
        hamiltonian=np.zeros((2, 2)),
        channels=(Channel(SM, efficiency=efficiency),),
        dt=dt,
        n_steps=n_steps,
    )


def test_record_validation():
    with pytest.raises(ValueError):
        ContinuousRecord(0, 0.0, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        ContinuousRecord(0, 1e-3, np.zeros(3))
    with pytest.raises(ValueError):
        ContinuousRecord(0, 1e-3, np.zeros((0, 1)))
    rec = ContinuousRecord(0, 1e-3, np.zeros((3, 1)))
    assert len(rec) == 3
    with pytest.raises(ValueError):
        rec.increments[0, 0] = 1.0


def test_model_validation():
    with pytest.raises(ValueError):
        Channel(SM, efficiency=1.4)
    with pytest.raises(ValueError):
        Channel(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SMEModel(np.array([[0, 1], [0, 0]]), (), dt=1e-3, n_steps=5)
    with pytest.raises(ValueError):
        SMEModel(np.zeros((2, 2)), (), dt=1e-3, n_steps=0)
    with pytest.raises(ValueError, match="hamiltonian must be finite"):
        SMEModel(np.diag([0.0, math.nan]), (), dt=1e-3, n_steps=5)
    with pytest.raises(ValueError, match="channel operator must be finite"):
        Channel(np.full((2, 2), math.inf))
    model = two_channel_model()
    assert model.monitored == (0, 1)
    assert model.dim == 2


def test_coarse_grid_warns():
    with pytest.warns(RuntimeWarning):
        decay_model(dt=0.5, n_steps=3)


def test_build_m_deterministic_part():
    # the noise-free factor is the square root of I - dt L^dag L, which
    # matches the first-order expression I - dt L^dag L / 2 up to O(dt^2)
    model = decay_model(dt=1e-3, n_steps=5)
    want = np.diag([math.sqrt(1.0 - 1e-3), 1.0]).astype(complex)
    assert np.abs(model._step_ops[0] - want).max() < 1e-15
    first_order = np.eye(2) - 0.5 * 1e-3 * SM.conj().T @ SM
    assert np.abs(want - first_order).max() < 2e-7
    mon = decay_model(dt=1e-3, n_steps=5, efficiency=0.36)
    got = mon._ops(0, np.array([0.25]))[0]
    assert np.abs(got - (want + 0.25 * 0.6 * SM)).max() < 1e-14
    with pytest.raises(ValueError):
        apply_cp_map(mon, 0, np.zeros(2), EXCITED)


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_two_point_quadrature_completeness(dt):
    """The signal law is quadratic in dy, so a +-sqrt(dt) two-point rule
    integrates it exactly; the summed adjoint of the identity must come
    back as I to rounding at any step size the model accepts."""
    model = two_channel_model(dt=dt)
    assert ident_defect(model) < 1e-12


def ident_defect(model):
    root = math.sqrt(model.dt)
    total = np.zeros((model.dim, model.dim), dtype=complex)
    for s1 in (-root, root):
        for s2 in (-root, root):
            total += apply_adjoint_cp_map(
                model, 0, np.array([s1, s2]), np.eye(model.dim)
            ) / 4.0
    return float(np.abs(total - np.eye(model.dim)).max())


def test_adjoint_pairing_identity():
    rng = np.random.default_rng(431)
    model = two_channel_model()
    for _ in range(8):
        rho = random_density(rng, 2)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        eff = a @ a.conj().T
        dy = rng.standard_normal(2) * math.sqrt(model.dt)
        lhs = np.trace(eff @ apply_cp_map(model, 0, dy, rho))
        rhs = np.trace(apply_adjoint_cp_map(model, 0, dy, eff) @ rho)
        assert abs(lhs - rhs) < 1e-11 * abs(lhs)


def test_unmonitored_filter_matches_closed_form_decay():
    n = 1000
    model = decay_model(dt=1.0 / n, n_steps=n)  # unit decay rate, run to t = 1
    rec = ContinuousRecord(0, model.dt, np.zeros((n, 0)))
    trace = forward_run(model, rec, EXCITED)
    p_e = trace.states[-1][0, 0].real
    assert p_e == pytest.approx(math.exp(-1.0), rel=1e-3)
    # with no monitored channel the unconditional evolution applies the
    # same step channel as the filter, so the two agree to roundoff
    uncond = lindblad_evolve(model, EXCITED)
    assert np.abs(uncond - trace.states).max() < 1e-12


def test_simulated_increments_follow_the_signal_law():
    model = SMEModel(
        hamiltonian=np.zeros((2, 2)),
        channels=(Channel(SX, efficiency=1.0),),
        dt=1e-3,
        n_steps=50,
    )
    plus = np.full((2, 2), 0.5, dtype=complex)
    records = sample_records(model, plus, 20_000, rng_seed=77)
    first = np.array([r.increments[0, 0] for r in records])
    # step-0 drift is tr(rho (L + L^dag)) dt = 2 dt for L = sx at |+>
    drift = 2.0 * model.dt
    noise = math.sqrt(model.dt / len(first))
    assert abs(first.mean() - drift) < 4.0 * noise
    assert abs(first.mean()) > 5.0 * noise  # the drift is resolved, not noise
    every = np.concatenate([r.increments[:, 0] for r in records])
    assert every.var() == pytest.approx(model.dt, rel=0.05)


def _tilted_batches(n):
    """Seeded (u, a, b, c) batches: generic, degenerate and edge quantiles."""
    rng = np.random.default_rng(2016)
    a, c, u = rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n), rng.random(n)
    root = 2.0 * np.sqrt(a * c)
    zero = np.zeros(n)
    edges = rng.choice([0.0, 1.0, 1e-300, -1.0], size=n)
    edges = np.where(edges < 0.0, 1.0 - 1e-15 * rng.random(n), edges)
    return {
        "random": (u, a, rng.uniform(-1.0, 1.0, n) * root, c),
        "double root +": (u, a, root, c),
        "double root -": (u, a, -root, c),
        "a = 0": (u, zero, zero, c),
        "c = b = 0": (u, a, zero, zero),
        "edge u": (edges, a, rng.uniform(-1.0, 1.0, n) * root, c),
    }


def test_tilted_quantile_converges_per_lane(monkeypatch):
    # F(x) = [a Phi - b phi + c (Phi - x phi)] / (a + c) in closed form;
    # the routine calls _ndtr once per pass on the lanes still running
    calls = []
    own_ndtr = continuous._ndtr

    def counting_ndtr(x):
        calls.append(np.size(x))
        return own_ndtr(x)

    monkeypatch.setattr(continuous, "_ndtr", counting_ndtr)
    n = 200_000
    for name, (u, a, b, c) in _tilted_batches(n).items():
        calls.clear()
        x = continuous._tilted_normal_ppf(u, a, b, c)
        assert np.isfinite(x).all(), name
        phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        cdf = (a * ndtr(x) - b * phi + c * (ndtr(x) - x * phi)) / (a + c)
        assert np.abs(cdf - u).max() <= 1e-12, name
        assert len(calls) <= 30, f"{name}: {len(calls)} passes"
        assert sum(calls) / n <= 10.0, f"{name}: {sum(calls) / n:.2f} per lane"
        if name == "c = b = 0":
            assert np.abs(x - ndtri(u)).max() <= 1e-12


def test_ndtr_matches_scipy():
    x = np.linspace(-38.0, 9.0, 470_001)
    got, want = continuous._ndtr(x), ndtr(x)
    assert (np.abs(x) > 4.0 * math.sqrt(2.0)).sum() > 100_000  # asymptotic branch
    normal = want >= np.finfo(float).tiny
    assert np.all(np.abs(got - want)[normal] <= 1e-14 * want[normal])
    # below x = -37.5 both values lie in the subnormal range or at zero
    assert x[~normal].max() < -37.5
    assert np.all(got[~normal] < np.finfo(float).tiny)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("tilted", [True, False])
def test_drawn_increments_have_the_tilted_moments(k, tilted):
    # density (a + b.x + x.Cx) phi(x) / (a + tr C) at dt = 1, with C full
    # (off-diagonal for k > 1): E[x] = b / (a + tr C) and
    # E[x x^T] = ((a + tr C) I + 2 C) / (a + tr C)
    rng = np.random.default_rng(400 + 10 * k + tilted)
    root = rng.normal(size=(k, k))
    quad = root @ root.T
    if tilted:
        b = rng.normal(size=k)
        a = b @ np.linalg.solve(quad, b) / 4.0 + rng.uniform(0.0, 1.0)
    else:
        a, b = 0.0, np.zeros(k)
    pairs = np.array([(v, w) for v in range(k) for w in range(v, k)])
    p = np.where(pairs[:, 0] == pairs[:, 1], 1.0, 2.0) * quad[pairs[:, 0], pairs[:, 1]]
    n = 400_000
    coeffs = np.tile(np.concatenate([[a], b, p]), (n, 1))
    x = continuous._draw_increments(np.random.default_rng(7), coeffs, pairs, 1.0)
    norm = a + np.trace(quad)
    first, second = b / norm, (norm * np.eye(k) + 2.0 * quad) / norm
    products = x[:, :, None] * x[:, None, :]
    z_first = (x.mean(axis=0) - first) / (x.std(axis=0) / math.sqrt(n))
    z_second = (products.mean(axis=0) - second) / (products.std(axis=0) / math.sqrt(n))
    assert np.abs(z_first).max() < 4.0
    assert np.abs(z_second).max() < 4.0


def test_step_operators_match_scipy_expm_of_the_hamiltonian():
    rng = np.random.default_rng(17)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = h + h.conj().T
    lower = np.diag([1.0, 1.0], 1).astype(complex)
    model = SMEModel(h, (Channel(lower, 0.5),), dt=1e-3, n_steps=2)
    base = continuous._build_step_ops(model)[0]
    vals, vecs = np.linalg.eigh(lower.conj().T @ lower)
    root = (vecs * np.sqrt(1.0 - model.dt * vals)) @ vecs.conj().T
    assert np.abs(base - expm(-1j * model.dt * h) @ root).max() <= 1e-15


def test_simulate_mean_tracks_unconditional_solution():
    model = decay_model(dt=0.02, n_steps=60, efficiency=0.4)
    records = sample_records(model, EXCITED, 400, rng_seed=9)
    states = forward_batch(model, records, EXCITED, range(61))
    means = np.stack([states[k].mean(axis=0) for k in range(61)])
    uncond = lindblad_evolve(model, EXCITED)
    assert np.abs(means - uncond).max() < 0.05


def test_filter_rejects_absurd_record():
    model = two_channel_model()
    bad = ContinuousRecord(0, model.dt, np.full((12, 2), 50.0))
    with pytest.raises(StepSizeTooLarge):
        forward_run(model, bad, EXCITED)


def test_filter_rejects_grid_mismatch():
    model = two_channel_model(dt=1e-3)
    rec = ContinuousRecord(0, 1.5e-3, np.zeros((12, 2)))
    with pytest.raises(ValueError, match="grid"):
        forward_run(model, rec, EXCITED)
    with pytest.raises(ValueError, match="grid"):
        backward_sweep(model, rec, (0,))


def test_lindblad_evolve_refuses_an_initial_state_of_another_dimension():
    with pytest.raises(DimensionMismatch, match="dimension 3, the model has 2"):
        lindblad_evolve(two_channel_model(), np.eye(3) / 3)


@pytest.mark.parametrize(
    "model",
    [
        build_fluorescence_model(),
        SMEModel(
            hamiltonian=0.7 * SZ + 0.4 * SX,
            channels=(Channel(SM, efficiency=0.6), Channel(0.5 * SZ)),
            dt=1e-2,
            n_steps=3,
        ),
    ],
    ids=["fluorescence", "driven_one_monitored"],
)
def test_lindblad_evolve_averages_the_step_map_over_the_signal(model):
    # Gauss-Hermite with two nodes per channel is exact for the quadratic
    # dependence of K_dy on dy, so this is the mean step of the sampler
    rho = random_density(np.random.default_rng(20), 2)
    nodes, weights = np.polynomial.hermite_e.hermegauss(2)
    weights = weights / weights.sum()
    want = np.zeros((2, 2), dtype=complex)
    for idx in np.ndindex(*(2,) * len(model.monitored)):
        dy = math.sqrt(model.dt) * nodes[list(idx)]
        want += np.prod(weights[list(idx)]) * apply_cp_map(model, 0, dy, rho)
    got = lindblad_evolve(model, rho, n_steps=1)[1]
    assert np.abs(got - want).max() <= 1e-14


def test_unstable_unconditional_step_raises():
    with pytest.warns(RuntimeWarning):
        model = decay_model(dt=2.5, n_steps=4)
    with pytest.raises(StepSizeTooLarge):
        lindblad_evolve(model, EXCITED)


def test_step_operators_are_built_once_per_model(monkeypatch):
    calls = []
    build = continuous._build_step_ops

    def counting_build(model):
        calls.append(model)
        return build(model)

    monkeypatch.setattr(continuous, "_build_step_ops", counting_build)
    model = build_fluorescence_model()
    dy = np.zeros(len(model.monitored))
    for t in range(model.n_steps):
        apply_cp_map(model, t, dy, EXCITED)
    assert len(calls) == 1


def test_backward_effects_are_valid():
    model = two_channel_model()
    records = sample_records(model, EXCITED, 6, rng_seed=21)
    for rec in records:
        adj = backward_sweep(model, rec, (0,))[0]
        e = adj.effect.matrix
        assert np.abs(e - e.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(e).min() > -1e-12
        assert np.trace(e).real == pytest.approx(1.0, abs=1e-10)
        assert math.isfinite(adj.log_c)


def test_forward_backward_duality():
    rng = np.random.default_rng(433)
    model = two_channel_model(n_steps=30)
    records = sample_records(model, EXCITED, 5, rng_seed=5)
    for rec in records:
        adj = backward_sweep(model, rec, (0,))[0]
        for _ in range(10):
            rho = random_density(rng, 2)
            fwd = forward_run(model, rec, rho).log_prob
            back = adj.log_c + math.log(
                np.trace(rho @ adj.effect.matrix).real
            )
            assert abs(fwd - back) <= 1e-8


def test_backward_batch_matches_scalar_and_suffix():
    model = two_channel_model(n_steps=8)
    records = sample_records(model, EXCITED, 4, rng_seed=13)
    out = backward_sweep_batch(model, records, start_indices=(0, 5))
    assert [len(v) for v in out.values()] == [4, 4]
    for rec, adj in zip(records, out[0]):
        solo = backward_sweep(model, rec, (0,))[0]
        assert np.abs(adj.effect.matrix - solo.effect.matrix).max() < 1e-12
        assert adj.log_c == pytest.approx(solo.log_c, abs=1e-12)
    for rec, adj in zip(records, out[5]):
        tail = ContinuousRecord(rec.id, rec.dt, rec.increments[5:])
        solo = backward_sweep(model, tail, (0,))[0]
        assert np.abs(adj.effect.matrix - solo.effect.matrix).max() < 1e-12
        assert adj.log_c == pytest.approx(solo.log_c, abs=1e-12)


def test_backward_batch_mixed_lengths():
    model = two_channel_model(n_steps=8)
    records = sample_records(model, EXCITED, 2, rng_seed=13)
    short = ContinuousRecord(9, records[0].dt, records[0].increments[:4])
    out = backward_sweep_batch(
        model, [records[0], short, records[1]], start_indices=(0, 6)
    )
    assert len(out[0]) == 3
    assert len(out[6]) == 2  # the four-step record has no step 6
    assert list(out[6].record_ids) == [records[0].id, records[1].id]
    solo = backward_sweep(model, short, (0,))[0]
    mixed = out[0][1]
    assert np.abs(mixed.effect.matrix - solo.effect.matrix).max() < 1e-12
    assert mixed.log_c == pytest.approx(solo.log_c, abs=1e-12)


def test_forward_batch_mixed_lengths():
    model = two_channel_model(n_steps=8)
    records = sample_records(model, EXCITED, 2, rng_seed=17)
    short = ContinuousRecord(9, records[0].dt, records[0].increments[:4])
    batch = [records[0], short, records[1]]
    out = forward_batch(model, batch, EXCITED, at=(0, 4, 6, 8))
    # the state after k steps exists for every record with at least k steps
    assert [len(out[k]) for k in (0, 4, 6, 8)] == [3, 3, 2, 2]
    for k, members in ((4, batch), (6, records), (8, records)):
        for got, rec in zip(out[k], members):
            want = forward_run(model, rec, EXCITED).states[k]
            assert np.abs(got - want).max() < 1e-12


def test_batch_matches_step_by_step_reference_on_fluorescence():
    model = build_fluorescence_model()
    plus = from_bloch((1.0, 0.0, 0.0))
    records = sample_records(model, plus, 200, rng_seed=2718)
    starts = range(26)  # the start times of the fluorescence runs
    out = backward_sweep_batch(model, records, starts)
    for i, rec in enumerate(records):
        refs = backward_sweep(model, rec, starts)
        for s in starts:
            adj, ref = out[s][i], refs[s]
            assert np.abs(adj.effect.matrix - ref.effect.matrix).max() <= 1e-12
            assert abs(adj.log_c - ref.log_c) <= 1e-12 * max(1.0, abs(ref.log_c))
    steps = range(model.n_steps + 1)
    states = forward_batch(model, records, plus, at=steps)
    for i, rec in enumerate(records):
        trace = forward_run(model, rec, plus)
        for k in steps:
            assert np.abs(states[k][i] - trace.states[k]).max() <= 1e-12


def test_step_errors_name_record_and_step():
    model = two_channel_model()
    records = sample_records(model, EXCITED, 3, rng_seed=23)
    # NaN fails every comparison, so only a "not above the floor" test
    # catches it
    for value, error, message in (
        (50.0, StepSizeTooLarge, "step 5 of record 7"),
        (math.nan, ZeroProbability, "record 7 has probability nan at step 5"),
    ):
        sig = np.array(records[1].increments)
        sig[5] = value
        bad = ContinuousRecord(7, model.dt, sig)
        batch = [records[0], bad, records[2]]
        with pytest.raises(error, match=message):
            backward_sweep_batch(model, batch)
        with pytest.raises(error, match=message):
            forward_batch(model, batch, EXCITED, at=(0,))
        with pytest.raises(error, match=message):
            backward_sweep(model, bad, (0,))
        with pytest.raises(error, match=message):
            forward_run(model, bad, EXCITED)


def test_forward_batch_matches_scalar():
    model = two_channel_model(n_steps=10)
    records = sample_records(model, EXCITED, 3, rng_seed=31)
    out = forward_batch(model, records, EXCITED, at=(0, 4, 10))
    assert set(out) == {0, 4, 10}
    for i, rec in enumerate(records):
        trace = forward_run(model, rec, EXCITED)
        for k in (0, 4, 10):
            assert np.abs(out[k][i] - trace.states[k]).max() < 1e-12
    with pytest.raises(ValueError):
        forward_batch(model, records, EXCITED, at=(11,))

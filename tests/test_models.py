"""Packaged measurement models: fluorescence, POVM shots, cavity readout."""
import math
import re

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from conftest import kraus_to_superop, pauli_povm
from trajtomo import (
    Channel,
    ContinuousRecord,
    DiscreteRecord,
    IncompletePOVM,
    RecordBatch,
    apply_cp_map,
    backward_sweep,
    build_fluorescence_model,
    build_qnd_family,
    forward_run,
    injection_channel,
    lindblad_evolve,
    mean_photon,
    number_operator,
    povm_family,
    quadrature_estimates,
    sample_records,
    thermal_decay_curve,
    thermal_relaxation_kraus,
    thermal_state,
)
from trajtomo.models import _expm, _lindblad_superop, _lowering

EXCITED = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
SIGNAL = [ContinuousRecord(0, 2e-7, np.zeros((10, 2)))]  # one heterodyne record


def fock(dim, n):
    mat = np.zeros((dim, dim), dtype=complex)
    mat[n, n] = 1.0
    return mat


# ---------------------------------------------------------------------------
# fluorescence model
# ---------------------------------------------------------------------------


def test_fluorescence_damping_is_pure_relaxation_plus_dephasing():
    t1, tphi = 4.15e-6, 35e-6
    model = build_fluorescence_model(t1=t1, tphi=tphi)
    l1, l2, lphi = (c.operator for c in model.channels)
    # the two emission quadratures together damp only the excited level
    both = l1.conj().T @ l1 + l2.conj().T @ l2
    want = np.diag([1.0 / t1, 0.0])
    assert np.abs(both - want).max() < 1e-9 / t1
    assert np.abs(lphi.conj().T @ lphi - np.eye(2) / (2 * tphi)).max() < 1e-9 / tphi
    assert model.monitored == (0, 1)
    assert model.n_steps == 46 and model.dt == pytest.approx(200e-9)


def test_fluorescence_coherence_decay_rates():
    t1, tphi = 4.15e-6, 35e-6
    model = build_fluorescence_model(t1=t1, tphi=tphi, dt=20e-9, n_steps=460)
    traj = lindblad_evolve(model, PLUS)
    x = 2.0 * traj[:, 0, 1].real
    t = model.dt * np.arange(len(x))
    fit = stats.linregress(t, np.log(x))
    want = 1.0 / (2 * t1) + 1.0 / tphi
    assert -fit.slope == pytest.approx(want, rel=0.01)
    # population relaxes toward the ground level at 1 / t1
    traj_z = lindblad_evolve(model, EXCITED)
    p_e = traj_z[:, 0, 0].real
    fit = stats.linregress(t, np.log(p_e))
    assert -fit.slope == pytest.approx(1.0 / t1, rel=0.01)


def test_quadrature_estimates_deterministic_contract():
    dt = 2e-7
    recs = [ContinuousRecord(0, dt, np.full((10, 2), 3.0 * dt))]
    got = quadrature_estimates(recs, t1=4e-6, efficiency=0.25, dt=dt)
    want = math.sqrt(2 * 4e-6 / 0.25) * 3.0
    assert got == pytest.approx([want, want], rel=1e-12)
    # a batch of mixed lengths averages exactly the steps its records hold,
    # in record order, as the concatenated increments of its views do
    rng = np.random.default_rng(76)
    recs = [ContinuousRecord(i, dt, rng.normal(size=(n, 2)) * dt)
            for i, n in enumerate((10, 3, 7))]
    batch = RecordBatch.from_records(recs)
    got = quadrature_estimates(batch, t1=4e-6, efficiency=0.25, dt=dt)
    assert np.all(got == quadrature_estimates(recs, t1=4e-6, efficiency=0.25, dt=dt))
    mean = np.concatenate([r.increments for r in recs]).mean(axis=0)
    assert np.all(got == math.sqrt(2 * 4e-6 / 0.25) * mean / dt)
    with pytest.raises(TypeError, match="signal records"):
        quadrature_estimates([DiscreteRecord(0, ("g",))], t1=4e-6, efficiency=0.25, dt=dt)


# ---------------------------------------------------------------------------
# POVM shot families
# ---------------------------------------------------------------------------


def test_povm_family_effects_match_elements():
    elements = pauli_povm()
    fam = povm_family(elements)
    assert set(fam.outcomes(0)) == set(elements)
    for name, f in elements.items():
        adj = backward_sweep(fam, DiscreteRecord(0, (name,)), (0,))[0]
        scale = np.trace(f).real
        assert np.abs(adj.effect.matrix - f / scale).max() < 1e-12
        assert math.exp(adj.log_c) == pytest.approx(scale, rel=1e-12)


def test_pauli_povm_resolves_identity():
    total = sum(pauli_povm().values())
    assert np.abs(total - np.eye(2)).max() < 1e-15
    for f in pauli_povm().values():
        assert np.linalg.eigvalsh(f).min() > -1e-15


def test_povm_family_rejects_bad_elements():
    with pytest.raises(IncompletePOVM):
        povm_family({"a": np.eye(2) / 2, "b": np.eye(2) / 3})
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError):
        povm_family({"a": sx, "b": np.eye(2) - sx})
    # the elements resolve the identity and their Hermitian parts are positive
    skew = np.array([[0.5, 0.1], [0.0, 0.5]])
    with pytest.raises(ValueError, match="POVM element 'g' must be Hermitian"):
        povm_family({"g": skew, "e": np.eye(2) - skew})


# ---------------------------------------------------------------------------
# cavity thermal contact
# ---------------------------------------------------------------------------


def test_thermal_state_and_mean_photon():
    rho = thermal_state(8, 0.06)
    assert mean_photon(rho) == pytest.approx(0.06, abs=1e-6)
    assert np.abs(thermal_state(5, 0.0).matrix - fock(5, 0)).max() == 0.0
    with pytest.raises(ValueError):
        thermal_state(5, -0.1)
    n_op = number_operator(4)
    assert np.abs(n_op - np.diag([0.0, 1, 2, 3])).max() == 0.0
    assert mean_photon(fock(6, 4)) == pytest.approx(4.0)


def test_thermal_relaxation_kraus_rebuilds_generator():
    dim, tc, nb, tau = 6, 65e-3, 0.06, 86e-6
    ops = thermal_relaxation_kraus(dim, tau, t_cavity=tc, n_bath=nb)
    total = sum(k.conj().T @ k for k in ops)
    assert np.abs(total - np.eye(dim)).max() < 1e-9
    # two applications of tau equal one application of 2 tau
    one = kraus_to_superop(ops)
    two = kraus_to_superop(thermal_relaxation_kraus(dim, 2 * tau, t_cavity=tc, n_bath=nb))
    assert np.abs(one @ one - two).max() < 1e-11


def test_thermal_fixed_point():
    dim, tc, nb = 8, 65e-3, 0.06
    sup = kraus_to_superop(
        thermal_relaxation_kraus(dim, 0.5 * tc, t_cavity=tc, n_bath=nb)
    )
    rho = thermal_state(dim, nb).matrix
    out = (sup @ rho.reshape(-1)).reshape(dim, dim)
    assert np.abs(out - rho).max() < 1e-8


def test_decay_curve_matches_channel_evolution():
    dim, tc, nb = 8, 65e-3, 0.06
    tau = tc / 10.0
    sup = kraus_to_superop(thermal_relaxation_kraus(dim, tau, t_cavity=tc, n_bath=nb))
    vec = fock(dim, 3).reshape(-1).astype(complex)
    got = []
    for _ in range(11):
        got.append(mean_photon(vec.reshape(dim, dim)))
        vec = sup @ vec
    times = tau * np.arange(11)
    want = thermal_decay_curve(3.0, times, t_cavity=tc, n_bath=nb)
    assert np.abs(np.array(got) - want).max() < 1e-6


# ---------------------------------------------------------------------------
# dispersive photon-number readout
# ---------------------------------------------------------------------------


def projective_family(n_steps):
    return build_qnd_family(
        n_steps,
        t_cavity=float("inf"),
        n_bath=0.0,
        detection_efficiency=1.0,
        readout_error=0.0,
        phase_per_photon=math.pi,
        phase_offsets=(0.0,),
    )


def test_projective_limit_collapses_parity_mixture():
    fam = projective_family(3)
    rho0 = 0.5 * fock(8, 0) + 0.5 * fock(8, 1)
    for seed in range(5):
        rec = sample_records(fam, rho0, 1, rng_seed=seed)[0]
        final = forward_run(fam, rec, rho0).states[-1]
        assert np.linalg.eigvalsh(final).max() > 0.999


def test_projective_limit_likelihood_frozen_values():
    fam = build_qnd_family(
        1,
        t_cavity=float("inf"),
        n_bath=0.0,
        detection_efficiency=0.4,
        readout_error=0.05,
    )
    # offset 0, quarter turn per photon: c(0) = 1, c(2) = 1/2
    run = forward_run(fam, DiscreteRecord(0, ("g",)), fock(8, 0))
    assert math.exp(run.log_prob) == pytest.approx(0.4 * 0.95, rel=1e-12)
    run = forward_run(fam, DiscreteRecord(0, ("g",)), fock(8, 2))
    assert math.exp(run.log_prob) == pytest.approx(0.4 * 0.5, rel=1e-12)
    run = forward_run(fam, DiscreteRecord(0, ("no",)), fock(8, 5))
    assert math.exp(run.log_prob) == pytest.approx(0.6, rel=1e-12)


def test_unread_step_preserves_photon_distribution():
    fam = projective_family(1)
    rng = np.random.default_rng(47)
    p = rng.random(8)
    rho = np.diag(p / p.sum()).astype(complex)
    total = np.zeros((8, 8), dtype=complex)
    for y in fam.outcomes(0):
        total += apply_cp_map(fam, 0, y, rho)
    assert np.abs(total - rho).max() < 1e-12


def test_all_undetected_outcomes_reduce_to_thermal_relaxation():
    fam = build_qnd_family(12)
    sup = kraus_to_superop(
        thermal_relaxation_kraus(8, 86e-6, t_cavity=65e-3, n_bath=0.06)
    )
    rho0 = fock(8, 4)
    run = forward_run(fam, DiscreteRecord(0, ("no",) * 12), rho0)
    vec = rho0.reshape(-1).astype(complex)
    for _ in range(12):
        vec = sup @ vec
    want = vec.reshape(8, 8) / np.trace(vec.reshape(8, 8)).real
    assert np.abs(run.states[-1] - want).max() < 1e-9


def test_qnd_family_validation():
    with pytest.raises(ValueError):
        build_qnd_family(0)
    with pytest.raises(ValueError):
        build_qnd_family(3, detection_efficiency=0.0)
    with pytest.raises(ValueError):
        build_qnd_family(3, readout_error=0.7)


# ---------------------------------------------------------------------------
# photon injection
# ---------------------------------------------------------------------------


def test_injection_channel_is_trace_preserving_and_positive():
    dim = 8
    sup = injection_channel(dim)
    rng = np.random.default_rng(53)
    for _ in range(10):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        out = (sup @ rho.reshape(-1)).reshape(dim, dim)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-11)
        assert np.abs(out - out.conj().T).max() < 1e-11
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-10


def test_injection_channel_adds_about_one_photon():
    dim = 8
    sup = injection_channel(dim)
    for start in (thermal_state(dim, 0.06).matrix, fock(dim, 0)):
        out = (sup @ start.reshape(-1).astype(complex)).reshape(dim, dim)
        gain = mean_photon(out) - mean_photon(start)
        assert 0.9 < gain < 1.2


def test_non_finite_parameters_are_refused_naming_them():
    # NaN fails every comparison, so each check must be one that NaN fails
    for build, message in (
        (lambda: build_qnd_family(3, phase_per_photon=math.nan),
         "Kraus operator for outcome 'g' is not finite"),
        (lambda: thermal_state(4, math.nan), "n_bar must lie in [0, inf), got nan"),
        (lambda: thermal_state(4, math.inf), "n_bar must lie in [0, inf), got inf"),
        (lambda: injection_channel(4, n_hot=math.nan),
         "n_hot must lie in [0, inf), got nan"),
        (lambda: injection_channel(4, strength=math.nan),
         "strength must lie in [0, inf), got nan"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: thermal_relaxation_kraus(4, -1e-3, t_cavity=1.0, n_bath=0.1),
     "duration must lie in [0, inf), got -0.001"),
    (lambda: thermal_relaxation_kraus(4, math.nan, t_cavity=1.0, n_bath=0.1),
     "duration must lie in [0, inf), got nan"),
    (lambda: thermal_relaxation_kraus(4, math.inf, t_cavity=1.0, n_bath=0.1),
     "duration must lie in [0, inf), got inf"),
    (lambda: thermal_relaxation_kraus(4, 0.1, t_cavity=1.0, n_bath=math.inf),
     "n_bath must lie in [0, inf), got inf"),
    (lambda: thermal_relaxation_kraus(4, 0.1, t_cavity=1.0, n_bath=math.nan),
     "n_bath must lie in [0, inf), got nan"),
    (lambda: build_qnd_family(3, step_time=math.inf),
     "step_time must lie in [0, inf), got inf"),
    (lambda: build_qnd_family(3, step_time=math.nan),
     "step_time must lie in [0, inf), got nan"),
    (lambda: build_qnd_family(3, n_max=7.0), "n_max must be an integer, got 7.0"),
    (lambda: build_qnd_family(3, n_max=True), "n_max must be an integer, got True"),
    (lambda: build_qnd_family(3, n_max=0), "n_max must be at least 1, got 0"),
    (lambda: build_qnd_family(3, n_max=-1), "n_max must be at least 1, got -1"),
    (lambda: build_qnd_family(True), "n_steps must be an integer, got True"),
    (lambda: thermal_state(3, True), "n_bar must be a number, got True"),
    (lambda: injection_channel(3, n_hot=True), "n_hot must be a number, got True"),
    (lambda: build_qnd_family(3, detection_efficiency=True),
     "detection_efficiency must be a number, got True"),
    (lambda: Channel(np.eye(2), True), "efficiency must be a number, got True"),
    (lambda: thermal_state(2.9, 0.1), "dim must be an integer, got 2.9"),
    (lambda: number_operator(2.5), "dim must be an integer, got 2.5"),
    (lambda: number_operator(0), "dim must be at least 1, got 0"),
    (lambda: injection_channel(2.5), "dim must be an integer, got 2.5"),
    (lambda: thermal_relaxation_kraus(2.5, 0.1, t_cavity=1.0, n_bath=0.1),
     "dim must be an integer, got 2.5"),
    (lambda: quadrature_estimates(SIGNAL, t1=True, efficiency=0.25, dt=2e-7),
     "t1 must be a number, got True"),
    (lambda: quadrature_estimates(SIGNAL, t1=4e-6, efficiency=0, dt=2e-7),
     "efficiency must lie in (0, 1], got 0.0"),
    (lambda: quadrature_estimates(SIGNAL, t1=-1.0, efficiency=0.25, dt=2e-7),
     "t1 must lie in (0, inf], got -1.0"),
    (lambda: quadrature_estimates(SIGNAL, t1=4e-6, efficiency=0.25, dt="2e-7"),
     "dt must be a number, got '2e-7'"),
])
def test_relaxation_refuses_bad_parameters_by_name(build, message):
    # a count or a parameter of the wrong type is a TypeError, as
    # operator.index raises
    wrong_type = "an integer" in message or "a number" in message
    error = TypeError if wrong_type else ValueError
    with pytest.raises(error, match=re.escape(message)):
        build()


def _coherence_order(dim):
    """i - j of each row-major index (i, j) of vec(rho)."""
    i, j = np.divmod(np.arange(dim * dim), dim)
    return i - j


def _qnd_generators(dim=8):
    a = _lowering(dim)
    relax = _lindblad_superop(dim, [
        math.sqrt(1.06 / 65e-3) * a, math.sqrt(0.06 / 65e-3) * a.conj().T,
    ]) * 86e-6
    inject = _lindblad_superop(dim, [math.sqrt(5.0) * a, 2.0 * a.conj().T]) * 0.3133
    return {"relaxation": relax, "injection": inject}


@pytest.mark.parametrize("norm", [1e-6, 1e-3, 0.1, 1.0, 5.0, 30.0, 100.0])
def test_expm_matches_scipy_on_random_matrices(norm):
    rng = np.random.default_rng(int(1e6 * norm) % 2**32)
    for dim in (2, 5, 16):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a *= norm / np.abs(a).sum(axis=0).max()
        want = expm(a)
        assert np.abs(_expm(a) - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("name", ["relaxation", "injection"])
def test_expm_of_the_qnd_generators_matches_scipy_and_keeps_exact_zeros(name):
    gen = _qnd_generators()[name]
    got, want = _expm(gen), expm(gen)
    assert np.abs(got - want).max() <= 2e-15
    order = _coherence_order(8)
    off_block = order[:, None] != order[None, :]
    assert np.all(gen[off_block] == 0)
    assert np.all(got[off_block] == 0)


def test_qnd_kraus_operators_each_shift_photon_number_by_one_amount():
    fam = build_qnd_family(4)
    n_ops = 0
    for t in range(fam.n_steps):
        for y in fam.outcomes(t):
            for k in fam.operators(t, y):
                rows, cols = np.nonzero(k)
                assert len(set(rows - cols)) == 1, (t, y)
                n_ops += 1
    assert n_ops == 4 * 3 * len(thermal_relaxation_kraus(
        8, 86e-6, t_cavity=65e-3, n_bath=0.06))

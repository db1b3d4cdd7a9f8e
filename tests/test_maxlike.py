"""Likelihood maximization: gradients, optima, certificates, oracles."""
import inspect
import math

import numpy as np
import pytest

from conftest import random_density, random_traceless
from trajtomo import (
    DegenerateLikelihood,
    DegenerateTrace,
    backward_sweep_batch,
    build_qnd_family,
    build_r_matrix,
    gradient,
    injection_channel,
    kkt_certificate,
    sample_records,
    solve_maxlike,
    thermal_state,
)

GROUND = np.diag([1.0, 0.0]).astype(complex)
EXCITED = np.diag([0.0, 1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_POVM = [(np.eye(2) + s * sign) / 6.0 for s in (SX, SY, SZ) for sign in (1, -1)]


def log_likelihood_at(mat, effects):
    traces = np.einsum("nij,ji->n", effects, mat).real
    return float(np.log(traces).sum())


def rrr_fixed_point(effects, dim, iters=20000, tol=1e-13):
    """Classical iterative solver: rho <- R rho R / tr, R = sum E / tr(rho E)."""
    rho = np.eye(dim, dtype=complex) / dim
    for _ in range(iters):
        traces = np.einsum("nij,ji->n", effects, rho).real
        r = np.einsum("n,nij->ij", 1.0 / traces, effects)
        new = r @ rho @ r
        new /= np.trace(new).real
        if np.abs(new - rho).max() < tol:
            return new
        rho = new
    return rho


def bloch_grid_argmax(bloch_effects, levels=4, pts=21):
    """Exhaustive likelihood search over the qubit state set, refined in stages."""
    e = np.asarray(bloch_effects, dtype=float)
    center = np.zeros(3)
    span = 1.0
    for _ in range(levels):
        axes = [np.linspace(center[k] - span, center[k] + span, pts) for k in range(3)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = grid[np.linalg.norm(grid, axis=1) <= 1.0]
        denom = 1.0 + grid @ e.T
        vals = np.where(
            denom.min(axis=1) > 0.0,
            np.log(np.maximum(denom, 1e-300)).sum(axis=1),
            -np.inf,
        )
        center = grid[int(np.argmax(vals))]
        span = 2.0 * span / (pts - 1)
    return center


def counts_to_effects(povm, counts):
    out = []
    for element, n in zip(povm, counts):
        e = element / np.trace(element).real
        out.extend([e] * int(n))
    return np.stack(out)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(201)
    h = 1e-5
    for dim in (2, 3):
        effects = np.stack([random_density(rng, dim) for _ in range(40)])
        rho = random_density(rng, dim)
        g = gradient(rho, effects)
        for _ in range(8):
            b = random_traceless(rng, dim)
            b /= np.linalg.norm(b)
            fd = (
                log_likelihood_at(rho + h * b, effects)
                - log_likelihood_at(rho - h * b, effects)
            ) / (2.0 * h)
            directional = np.trace(g @ b).real
            assert fd == pytest.approx(directional, rel=1e-6, abs=1e-8)


def test_gradient_kernels_agree():
    # the public gradient, the certificate and the solver's own gradient
    # at its I/d start share one trace kernel; all three must match a
    # per-effect reference
    rng = np.random.default_rng(208)
    dim, n = 4, 120
    effects = np.stack([random_density(rng, dim) for _ in range(n)])
    rho = np.eye(dim, dtype=complex) / dim
    ref = sum(e / np.trace(rho @ e).real for e in effects)
    scale = np.linalg.norm(ref)
    g_public = gradient(rho, effects)
    start = solve_maxlike(effects, max_iterations=0)
    assert start.n_iterations == 0
    g_solver = start.gradient
    assert np.linalg.norm(g_public - ref) <= 1e-13 * scale
    assert np.linalg.norm(g_solver - g_public) <= 1e-13 * scale
    report = kkt_certificate(rho, effects)
    assert report == start.kkt
    lam = np.trace(rho @ ref).real
    assert report.lagrange_multiplier == pytest.approx(lam, rel=1e-13)
    comm = np.linalg.norm(rho @ ref - ref @ rho)
    assert abs(report.commutator_norm - comm) <= 1e-13 * scale


def test_gradient_degenerate_trace():
    with pytest.raises(DegenerateTrace):
        gradient(EXCITED, [GROUND])


def test_binomial_instance_reaches_closed_form():
    effects = [GROUND] * 30 + [EXCITED] * 70
    result = solve_maxlike(effects)
    assert np.abs(result.rho.matrix - np.diag([0.3, 0.7])).max() < 1e-6
    assert result.certified
    assert result.lagrange_multiplier == pytest.approx(100.0, abs=1e-4)
    assert result.kkt.residual <= 1e-7 * 100.0
    assert result.rank == 2


def test_pure_instance_reaches_boundary():
    n = 50
    result = solve_maxlike([GROUND] * n)
    assert np.abs(result.rho.matrix - GROUND).max() < 1e-7
    assert result.rank == 1
    assert result.lagrange_multiplier == pytest.approx(n, abs=1e-6 * n)
    g = gradient(result.rho, [GROUND] * n)
    assert np.abs(g - n * GROUND).max() < 1e-5


def test_solver_matches_grid_search():
    rng = np.random.default_rng(202)
    true_v = np.array([0.6, 0.0, 0.3])
    rho_true = (np.eye(2) + true_v[0] * SX + true_v[1] * SY + true_v[2] * SZ) / 2.0
    probs = np.array([np.trace(rho_true @ e).real for e in PAULI_POVM])
    counts = rng.multinomial(400, probs)
    effects = counts_to_effects(PAULI_POVM, counts)
    result = solve_maxlike(effects)
    got_v = np.array([np.trace(result.rho.matrix @ s).real for s in (SX, SY, SZ)])
    want_v = bloch_grid_argmax(
        np.stack([[np.trace(e / np.trace(e).real @ s).real for s in (SX, SY, SZ)]
                  for e in effects])
    )
    assert np.abs(got_v - want_v).max() < 2e-3


def test_solver_matches_rrr_oracle_on_povm_counts():
    rng = np.random.default_rng(203)
    for trial in range(5):
        counts = rng.multinomial(300, np.full(6, 1 / 6)) + 1
        effects = counts_to_effects(PAULI_POVM, counts)
        result = solve_maxlike(effects)
        want = rrr_fixed_point(effects, 2)
        assert np.linalg.norm(result.rho.matrix - want) < 1e-6


def test_ascent_is_monotone():
    rng = np.random.default_rng(204)
    effects = np.stack([random_density(rng, 3) for _ in range(60)])
    result = solve_maxlike(effects)
    hist = np.asarray(result.f_history)
    assert hist.size >= 1
    assert np.all(np.diff(hist) >= -1e-9 * np.abs(hist[:-1]))
    assert result.log_likelihood == pytest.approx(hist[-1])


def test_effect_scaling_leaves_optimum_unchanged():
    rng = np.random.default_rng(205)
    effects = np.stack([random_density(rng, 2) for _ in range(50)])
    base = solve_maxlike(effects)
    scaled = solve_maxlike(3.7 * effects)
    assert np.abs(base.rho.matrix - scaled.rho.matrix).max() < 1e-8
    assert scaled.lagrange_multiplier == pytest.approx(50.0, abs=1e-4)


def test_certificate_rejects_perturbed_optimum():
    n = 80
    effects = [GROUND] * n
    result = solve_maxlike(effects)
    nudged = 0.99 * result.rho.matrix + 0.01 * np.eye(2) / 2.0
    report = kkt_certificate(nudged, effects)
    assert not report.satisfied
    assert report.residual > 1e-3 * n


def test_certificate_fields_at_interior_optimum():
    effects = [GROUND] * 40 + [EXCITED] * 60
    result = solve_maxlike(effects)
    report = kkt_certificate(result.rho, effects)
    assert report.satisfied
    assert report.rank == 2
    assert report.commutator_norm < 1e-7 * 100
    assert report.ascent_excess < 1e-7 * 100
    assert report.support_deficit < 1e-7 * 100
    assert report.lagrange_multiplier == pytest.approx(100.0, abs=1e-5)


def test_degenerate_likelihood_raises():
    with pytest.raises(DegenerateLikelihood):
        solve_maxlike([np.eye(2) / 2.0] * 10)


@pytest.mark.parametrize("scales", [[3.7] * 5, [1.0, 3.7, 0.2, 12.0]])
def test_scaled_maximally_mixed_effects_are_degenerate(scales):
    # a likelihood that does not depend on the state is refused at any scale
    with pytest.raises(DegenerateLikelihood):
        solve_maxlike([s * np.eye(2) / 2.0 for s in scales])


def test_scaled_effects_give_the_same_certified_state():
    effects = np.stack(PAULI_POVM[:4] + [GROUND / 2, EXCITED / 3])
    want = solve_maxlike(effects)
    got = solve_maxlike(3.7 * effects)
    assert want.certified and got.certified
    assert np.abs(got.rho.matrix - want.rho.matrix).max() < 1e-8


def test_iteration_cap_returns_uncertified():
    rng = np.random.default_rng(206)
    effects = np.stack([random_density(rng, 3) for _ in range(50)])
    result = solve_maxlike(effects, max_iterations=1)
    assert not result.certified
    assert result.n_iterations == 1
    assert result.kkt.residual > 0.0
    # f at the start and after the one iteration
    assert len(result.f_history) == 2


def test_certifies_qnd_starts_at_roundoff_floor():
    # photon-counting optima where a step's likelihood rise is far below the
    # roundoff of f and of n tr(delta): on this draw, given as bare arrays,
    # an Armijo test on f stalled at starts 1378 and 1680 before the
    # certificate passed (residuals 1.2 and 4.7 times the threshold), and a
    # rise summed from trace ratios but keeping n tr(delta) at three others
    fam = build_qnd_family(2_500, t_cavity=65e-3, n_bath=0.06, step_time=86e-6)
    records = sample_records(
        fam, thermal_state(fam.dim, 0.06), 250, 6,
        interventions={1_000: injection_channel(fam.dim)},
    )
    rel = [-1.3, -1.0, -0.75, -0.5, -0.3, -0.15] + [0.1 * k for k in range(16)]
    starts = [1_000 + round(r * 65e-3 / 86e-6) for r in rel]
    effects = backward_sweep_batch(fam, records, starts)
    for s in starts:
        result = solve_maxlike(np.asarray(effects[s].effects))
        assert result.certified, s
        assert result.kkt.residual <= result.kkt.threshold


def _block_effects(rng, dim, parts, n):
    """n effects block diagonal over parts, each block a random positive
    matrix present with probability 0.8 (the first kept if all miss)."""
    out = np.zeros((n, dim, dim), dtype=complex)
    for e in out:
        for p in parts:
            if rng.random() < 0.8:
                e[np.ix_(p, p)] = rng.random() * random_density(rng, len(p))
        if not e.any():
            e[np.ix_(parts[0], parts[0])] = random_density(rng, len(parts[0]))
    return out


@pytest.mark.parametrize(
    "dim, parts",
    [(4, [[0, 2], [1], [3]]), (5, [[0, 3], [1, 2, 4]]), (4, [[0], [1], [2], [3]])],
    ids=["2+1+1", "2+3", "diagonal"],
)
def test_block_solve_matches_the_rotated_dense_solve(dim, parts):
    # a random unitary U makes every effect dense: U E U* is one block
    rng = np.random.default_rng(300)
    parts = [np.array(p) for p in parts]
    effects = _block_effects(rng, dim, parts, 80)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = np.linalg.qr(z)[0]
    rotated = u @ effects @ u.conj().T
    assert (rotated != 0).all()
    block, dense = solve_maxlike(effects), solve_maxlike(rotated)
    assert block.certified and dense.certified
    assert block.rank == dense.rank
    back = u.conj().T @ dense.rho.matrix @ u
    assert np.abs(block.rho.matrix - back).max() < 1e-6
    off = np.ones((dim, dim), dtype=bool)
    for p in parts:
        off[np.ix_(p, p)] = False
    assert (block.rho.matrix[off] == 0).all() and (block.gradient[off] == 0).all()
    obs = np.zeros((dim, dim), dtype=complex)
    for p in parts:
        shape = (p.size, p.size)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        obs[np.ix_(p, p)] = h + h.conj().T
    want = build_r_matrix(dense.rho, rotated).variance(u @ obs @ u.conj().T)
    got = build_r_matrix(block.rho, effects).variance(obs)
    assert got == pytest.approx(want, rel=1e-6)


def _gap_instance(case):
    if case == "qubit":
        rng = np.random.default_rng(209)
        return np.stack([random_density(rng, 2) for _ in range(60)])
    fam = build_qnd_family(300)
    records = sample_records(fam, thermal_state(fam.dim, 0.06), 60, 11)
    return backward_sweep_batch(fam, records, [0])[0]


@pytest.mark.parametrize("case", ["qnd", "qubit"])
def test_likelihood_gap_bounds_the_distance_to_the_optimum(case):
    # N log(lambda_max(G) / N) >= f* - f(rho) at every iterate, and the
    # certified optimum stands in for f*, which it cannot exceed
    effects = _gap_instance(case)
    best = solve_maxlike(effects)
    assert best.certified
    assert 0.0 <= best.kkt.likelihood_gap < 1e-2
    for cut in (0, 1, 2, 4):
        early = solve_maxlike(effects, max_iterations=cut)
        assert early.n_iterations == cut
        rise = best.log_likelihood - early.log_likelihood
        assert early.kkt.likelihood_gap >= rise >= 0.0


def test_solutions_cover_both_ranks():
    rng = np.random.default_rng(207)
    mixed = np.stack([random_density(rng, 2) for _ in range(60)])
    interior = solve_maxlike(mixed)
    boundary = solve_maxlike([GROUND] * 25)
    assert interior.rank == 2
    assert boundary.rank == 1
    for res, n in ((interior, 60), (boundary, 25)):
        assert res.n_records == n
        assert res.kkt.residual <= 1e-7 * n
        assert abs(res.lagrange_multiplier - n) <= 1e-6 * n


@pytest.mark.parametrize(
    "options",
    [{"kkt_tol": 0.0}, {"kkt_tol": -1.0}, {"kkt_tol": math.nan}, {"kkt_tol": math.inf},
     {"max_iterations": -1}],
)
def test_bad_solver_options_raise(options):
    with pytest.raises(ValueError, match=next(iter(options))):
        solve_maxlike([GROUND] * 3 + [EXCITED] * 7, **options)


@pytest.mark.parametrize("kkt_tol", [True, "1e-7"])
def test_solver_tolerance_that_is_not_a_number_raises(kkt_tol):
    # True would certify at tolerance 1.0
    with pytest.raises(TypeError, match=f"^kkt_tol must be a number, got {kkt_tol!r}$"):
        solve_maxlike([GROUND] * 3 + [EXCITED] * 7, kkt_tol=kkt_tol)


@pytest.mark.xfail(
    strict=True,
    reason="known stall, ROADMAP item 2: projected gradient with BB steps creeps "
    "along the boundary and stops at the iteration cap, rank 2, residual 24.5 "
    "times the threshold",
)
def test_near_diagonal_dimension_eight_instance_certifies():
    # 250 effects (1 - eps)|k><k| + eps W / tr W: k ~ exp(-0.6 k), W = A A* for
    # a complex Gaussian A; every k is drawn first, then the A's
    dim, n, eps = 8, 250, 0.01
    rng = np.random.default_rng(18)
    p = np.exp(-0.6 * np.arange(dim))
    ks = rng.choice(dim, size=n, p=p / p.sum())
    effects = []
    for k in ks:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w = a @ a.conj().T
        e = eps * w / w.trace().real
        e[k, k] += 1.0 - eps
        effects.append(e)
    assert solve_maxlike(np.stack(effects)).certified


def test_solver_has_no_start_option():
    assert "rho0" not in inspect.signature(solve_maxlike).parameters


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.zeros((2, 2)), "effect 1 has trace 0.000e[+]00, not positive"),
        (np.diag([-0.5, 1.5]), "effect 1 is not positive semidefinite"),
        (np.diag([math.nan, 1.0]), "effect 1 is not finite"),
        (-GROUND, "effect 1 has trace -1.000e[+]00"),
    ],
)
def test_plain_effects_are_checked_naming_their_index(bad, match):
    effects = np.stack([GROUND, bad, EXCITED])
    with pytest.raises(ValueError, match=match):
        solve_maxlike(effects)

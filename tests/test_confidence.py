"""Error bars: tangent geometry, stiffness form, Monte Carlo cross-check."""
import inspect
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_density, random_hermitian
from trajtomo import (
    DegenerateTrace,
    DimensionMismatch,
    EffectiveSampleSizeTooLow,
    RMatrix,
    Unidentifiable,
    build_r_matrix,
    gradient,
    kkt_certificate,
    log_likelihood,
    number_operator,
    posterior_variance_mc,
    solve_maxlike,
)
import trajtomo.confidence
from trajtomo.confidence import _eigenbasis_tangent, _stiffness_form
from trajtomo.maxlike import _support
from trajtomo.config import RANK_REL

GROUND = np.diag([1.0, 0.0]).astype(complex)
EXCITED = np.diag([0.0, 1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def log_likelihood_at(mat, effects):
    traces = np.einsum("nij,ji->n", effects, mat).real
    if traces.min() <= 0.0:
        return -math.inf
    return float(np.log(traces).sum())


# ---------------------------------------------------------------------------
# tangent geometry
# ---------------------------------------------------------------------------


def tangent_project(b, p):
    """The tangent space at a state with support projector P, by its
    definition: B - tr(B P)/tr(P) P - Q B Q with Q = I - P."""
    q = np.eye(b.shape[0]) - p
    return b - np.trace(b @ p).real / np.trace(p).real * p - q @ b @ q


def traceless_spanning_set(n):
    """The generalized Gell-Mann matrices without the identity: for each
    j < k the real and imaginary off-diagonal pair, then the traceless
    diagonals diag(1, ..., 1, -l, 0, ...) / sqrt(l (l + 1))."""
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            asym = np.zeros((n, n), dtype=complex)
            asym[j, k], asym[k, j] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
            out += [sym, asym]
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l], diag[l] = 1.0, -float(l)
        out.append(np.diag(diag / np.sqrt(l * (l + 1.0))).astype(complex))
    return out


def test_reference_spanning_set_is_an_orthonormal_traceless_basis():
    for n in (2, 3, 4):
        mats = np.stack(traceless_spanning_set(n))
        assert mats.shape == (n * n - 1, n, n)
        gram = np.einsum("aij,bji->ab", mats, mats)
        assert np.abs(gram - np.eye(n * n - 1)).max() < 1e-15
        assert np.abs(np.einsum("aii->a", mats)).max() < 1e-15
        assert np.array_equal(mats, mats.conj().transpose(0, 2, 1))


def tangent_basis(rho):
    """The tangent basis that build_r_matrix puts in ``RMatrix.basis`` at
    the state rho, read where no effects exist."""
    _, v, keep = _support(np.asarray(rho, dtype=complex))
    return _eigenbasis_tangent(v, keep)


def test_tangent_basis_dimension_and_orthonormality():
    rng = np.random.default_rng(301)
    cases = [
        (random_density(rng, 2), 3),
        (random_density(rng, 3), 8),
        (GROUND, 2),
        (np.diag([0.5, 0.5, 0.0]).astype(complex), 7),
        (np.diag([1.0, 0.0, 0.0]).astype(complex), 4),
    ]
    for state, expected in cases:
        basis = tangent_basis(state)
        assert len(basis) == expected
        mats = list(basis)
        gram = np.array([[np.trace(a @ b).real for b in mats] for a in mats])
        assert np.abs(gram - np.eye(len(mats))).max() < 1e-10
        for m in mats:
            assert abs(np.trace(m).real) < 1e-12


def test_tangent_basis_avoids_kernel_block():
    basis = tangent_basis(np.diag([0.6, 0.4, 0.0]).astype(complex))
    q = np.diag([0.0, 0.0, 1.0])
    for b in basis:
        assert np.abs(q @ b @ q).max() < 1e-10


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def state_with_spectrum(rng, spectrum):
    """rho = U diag(spectrum) U* / trace for a random U."""
    p = np.asarray(spectrum, dtype=float)
    u = random_unitary(rng, p.size)
    return (u * (p / p.sum())) @ u.conj().T


def flat_real(mats):
    mats = np.asarray(mats)
    return np.concatenate(
        [mats.reshape(len(mats), -1).real, mats.reshape(len(mats), -1).imag], axis=1
    )


def check_tangent_basis(rho, rank):
    n = rho.shape[0]
    # the support split the old construction used: eigenvalues above the cut
    w, v = np.linalg.eigh(rho)
    assert (w > RANK_REL * w[-1]).sum() == rank
    p = v[:, n - rank :] @ v[:, n - rank :].conj().T
    basis = tangent_basis(rho)
    assert basis.shape == (n * n - (n - rank) ** 2 - 1, n, n)
    for b in basis:
        assert np.abs(tangent_project(b, p) - b).max() < 1e-12
    gram = np.einsum("aij,bji->ab", basis, basis).real
    assert np.abs(gram - np.eye(len(basis))).max() < 1e-12
    # same span as the tangent projections of a traceless spanning set
    projected = flat_real([tangent_project(b, p) for b in traceless_spanning_set(n)])
    span = np.linalg.matrix_rank(projected, tol=1e-9)
    assert span == len(basis)
    assert np.linalg.matrix_rank(
        np.concatenate([projected, flat_real(basis)]), tol=1e-9
    ) == span


def test_closed_form_basis_spans_tangent_space():
    rng = np.random.default_rng(310)
    for n in (2, 3, 5, 8):
        for rank in range(1, n + 1):
            spectrum = np.zeros(n)
            spectrum[:rank] = rng.uniform(0.1, 1.0, rank)
            check_tangent_basis(state_with_spectrum(rng, spectrum), rank)


def test_closed_form_basis_at_degenerate_and_near_cut_spectra():
    rng = np.random.default_rng(311)
    # degenerate support eigenvalues, with and without a kernel
    for spectrum, rank in (
        ([0.25] * 4 + [0.0] * 4, 4),
        ([1.0] * 8, 8),
        ([0.4, 0.4, 0.1, 0.1, 0.0], 4),
    ):
        check_tangent_basis(state_with_spectrum(rng, spectrum), rank)
    # an eigenvalue a factor 1 +- 1e-3 from the rank cut lands on its side
    for factor, rank in ((1.0 + 1e-3, 4), (1.0 - 1e-3, 3)):
        spectrum = [0.5, 0.3, 0.2, factor * RANK_REL * 0.5, 0.0, 0.0]
        check_tangent_basis(state_with_spectrum(rng, spectrum), rank)


def gram_schmidt_tangent_basis(rho):
    """The tangent basis as built before the closed form: every Gell-Mann
    element projected onto the tangent space, then Gram-Schmidt."""
    n = rho.shape[0]
    w, v = np.linalg.eigh(rho)
    keep = w > RANK_REL * max(float(w[-1]), 0.0)
    p = v[:, keep] @ v[:, keep].conj().T
    p = (p + p.conj().T) / 2.0
    out = []
    for b in traceless_spanning_set(n):
        cand = tangent_project(b, p)
        for _ in range(2):
            for prev in out:
                cand = cand - np.einsum("ij,ji->", prev, cand).real * prev
        norm = float(np.linalg.norm(cand))
        if norm > 1e-10:
            out.append(cand / norm)
    assert len(out) == n * n - (n - int(keep.sum())) ** 2 - 1
    return np.stack(out)


def variance_or_raise(r, a):
    try:
        return r.variance(a)
    except Unidentifiable:
        return None


def test_variance_matches_gram_schmidt_basis():
    rng = np.random.default_rng(312)
    dim, n_eff = 8, 250
    observables = [number_operator(dim)] + [
        random_hermitian(rng, dim) for _ in range(5)
    ]
    compared = raised = 0
    for rank in range(1, dim + 1):
        # effects living on a rank-dimensional subspace pin the optimum
        # inside it; diagonal ones leave its coherences unconstrained
        u = random_unitary(rng, dim)[:, :rank]
        for diagonal in (False, True):
            effects = []
            for _ in range(n_eff):
                if diagonal:
                    w = np.diag(rng.exponential(size=rank))
                else:
                    w = random_density(rng, rank) + 0.1 * np.eye(rank)
                e = u @ w @ u.conj().T
                effects.append(e / e.trace().real)
            effects = np.stack(effects)
            result = solve_maxlike(effects)
            assert result.certified
            r = build_r_matrix(result.rho, effects)
            mat = result.rho.matrix
            ref_basis = gram_schmidt_tangent_basis(mat)
            e_flat = effects.reshape(n_eff, -1)
            traces = np.einsum("nij,ji->n", effects, mat).real
            ref_r, _, lam = _stiffness_form(
                mat, e_flat, traces, ref_basis, _support(mat)
            )
            ref = RMatrix(result.rho, ref_basis, ref_r, lam)
            assert r.tangent_dim == ref.tangent_dim
            for a in observables:
                got, want = variance_or_raise(r, a), variance_or_raise(ref, a)
                assert (got is None) == (want is None)
                if want is None:
                    raised += 1
                else:
                    compared += 1
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-300)
    assert compared >= 40 and raised >= 10


# ---------------------------------------------------------------------------
# stiffness form against independent references
# ---------------------------------------------------------------------------


def test_interior_r_matrix_is_negative_hessian():
    rng = np.random.default_rng(302)
    h = 1e-3
    for dim, n_eff in ((2, 50), (3, 80)):
        effects = np.stack([random_density(rng, dim) for _ in range(n_eff)])
        result = solve_maxlike(effects)
        assert result.rank == dim
        r = build_r_matrix(result.rho, effects)
        mats = r.basis
        m = mats.shape[0]
        x0 = result.rho.matrix

        def f(s):
            return log_likelihood_at(
                x0 + np.einsum("k,kij->ij", s, mats), effects
            )

        hess = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                s = np.zeros(m)
                if i == j:
                    s[i] = h
                    up = f(s)
                    s[i] = -h
                    down = f(s)
                    hess[i, i] = (up - 2.0 * f(np.zeros(m)) + down) / h**2
                else:
                    vals = []
                    for si, sj in ((h, h), (h, -h), (-h, h), (-h, -h)):
                        s = np.zeros(m)
                        s[i], s[j] = si, sj
                        vals.append(f(s))
                    hess[i, j] = hess[j, i] = (
                        vals[0] - vals[1] - vals[2] + vals[3]
                    ) / (4.0 * h**2)
        rel = np.linalg.norm(r.matrix + hess) / np.linalg.norm(r.matrix)
        assert rel < 1e-4


def test_binomial_variance_matches_fisher_bound():
    effects = [GROUND] * 30 + [EXCITED] * 70
    result = solve_maxlike(effects)
    p = result.rho.matrix[1, 1].real
    r = build_r_matrix(result.rho, effects)
    var = r.variance(SZ)
    fisher = 4.0 * p * (1.0 - p) / 100.0
    assert abs(var - fisher) / fisher < 0.05


def test_pure_instance_hand_value():
    # every record says "ground": transverse spread must be exactly 2/N
    n = 64
    effects = [GROUND] * n
    result = solve_maxlike(effects)
    r = build_r_matrix(result.rho, effects)
    assert r.tangent_dim == 2
    assert r.variance(SX) == pytest.approx(2.0 / n, rel=1e-8)
    # the radial direction is pinned by the boundary: no spread at all
    assert r.variance(SZ) == pytest.approx(0.0, abs=1e-12)
    assert r.lagrange_multiplier == pytest.approx(n, rel=1e-9)


def test_r_matrix_invariants():
    rng = np.random.default_rng(303)
    instances = [
        np.stack([random_density(rng, 2) for _ in range(30)]),
        np.stack([random_density(rng, 3) for _ in range(50)]),
    ]
    for effects in instances:
        result = solve_maxlike(effects)
        r = build_r_matrix(result.rho, effects)
        assert np.abs(r.matrix - r.matrix.T).max() < 1e-9
        w = np.linalg.eigvalsh(r.matrix)
        assert w.min() >= -1e-8 * np.linalg.norm(r.matrix)
        a = random_hermitian(rng, effects.shape[1])
        var = r.variance(a)
        assert var >= 0.0
        # adding a multiple of the identity shifts the mean, not the spread
        shifted = r.variance(a + 2.2 * np.eye(effects.shape[1]))
        assert shifted == pytest.approx(var, rel=1e-10)
        assert r.variance(3.0 * a) == pytest.approx(9.0 * var, rel=1e-10)


def test_interval_reporting():
    effects = [GROUND] * 30 + [EXCITED] * 70
    result = solve_maxlike(effects)
    r = build_r_matrix(result.rho, effects)
    iv = r.interval(SZ, label="z")
    assert iv.label == "z"
    assert iv.mean == pytest.approx(-0.4, abs=1e-6)
    assert iv.sigma == pytest.approx(math.sqrt(iv.variance))
    assert iv.half_width_95 == pytest.approx(2.0 * iv.sigma)
    assert iv.lo95 == pytest.approx(iv.mean - 2.0 * iv.sigma)
    assert iv.hi95 == pytest.approx(iv.mean + 2.0 * iv.sigma)


def test_unconstrained_directions_raise():
    # z-only counting data says nothing about x
    effects = [GROUND] * 30 + [EXCITED] * 70
    result = solve_maxlike(effects)
    r = build_r_matrix(result.rho, effects)
    with pytest.raises(Unidentifiable):
        r.variance(SX)


def test_r_matrix_degenerate_trace():
    with pytest.raises(DegenerateTrace):
        build_r_matrix(GROUND, [EXCITED])


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------


def test_mc_prior_only_matches_uniform_ball_moments():
    # no records: the posterior is the flat prior over the state set, whose
    # z-marginal on a qubit has density (3/4)(1 - z^2), hence variance 1/5
    est = posterior_variance_mc([], SZ, np.eye(2) / 2.0, n_samples=200_000, seed=1)
    assert abs(est.mean) <= 3.0 * est.stderr
    assert est.variance == pytest.approx(0.2, rel=0.03)
    assert est.ess >= 100.0


def test_mc_matches_quadrature_on_binomial_posterior():
    n_g, n_e = 30, 70
    effects = [GROUND] * n_g + [EXCITED] * n_e

    # exact posterior moments of z by one-dimensional quadrature: the x,y
    # marginals integrate to a (1 - z^2) factor from the ball cross-section
    def weight(z):
        q = (1.0 + z) / 2.0
        return (1.0 - z * z) * q**n_g * (1.0 - q) ** n_e

    norm = quad(weight, -1.0, 1.0)[0]
    mean_exact = quad(lambda z: z * weight(z), -1.0, 1.0)[0] / norm
    second = quad(lambda z: z * z * weight(z), -1.0, 1.0)[0] / norm
    var_exact = second - mean_exact**2

    result = solve_maxlike(effects)
    est = posterior_variance_mc(
        effects, SZ, result.rho, n_samples=400_000, seed=2
    )
    assert abs(est.mean - mean_exact) <= 3.0 * est.stderr
    assert est.variance == pytest.approx(var_exact, rel=0.05)
    assert est.ess >= 100.0


def test_mc_gap_to_analytic_shrinks_with_data():
    gaps = []
    for n in (25, 100, 400):
        effects = [GROUND] * n
        result = solve_maxlike(effects)
        analytic = build_r_matrix(result.rho, effects).variance(SX)
        est = posterior_variance_mc(
            effects, SX, result.rho, n_samples=400_000, seed=3
        )
        gaps.append(abs(est.variance - analytic) / analytic)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.15


def test_mc_observable_stack_matches_single_calls():
    rng = np.random.default_rng(305)
    effects = np.stack(
        [0.5 * random_density(rng, 2) + 0.25 * np.eye(2) for _ in range(60)]
    )
    result = solve_maxlike(effects)
    observables = np.stack([SX, SZ, random_hermitian(rng, 2)])
    stacked = posterior_variance_mc(
        effects, observables, result.rho, n_samples=20_000, seed=9
    )
    for field in ("mean", "variance", "stderr"):
        assert getattr(stacked, field).shape == (3,)
    for k, a in enumerate(observables):
        one = posterior_variance_mc(effects, a, result.rho, n_samples=20_000, seed=9)
        assert isinstance(one.mean, float)
        assert (one.ess, one.n_valid) == (stacked.ess, stacked.n_valid)
        for field in ("mean", "variance", "stderr"):
            want = getattr(one, field)
            assert abs(getattr(stacked, field)[k] - want) <= 1e-12 * abs(want)


def test_mc_effective_sample_size_floor(monkeypatch):
    effects = [GROUND] * 30
    result = solve_maxlike(effects)
    monkeypatch.setattr(trajtomo.confidence, "_ESS_MIN", 1e12)
    with pytest.raises(EffectiveSampleSizeTooLow) as info:
        posterior_variance_mc(effects, SX, result.rho, n_samples=10_000, seed=6)
    assert info.value.ess > 0.0


def test_mc_has_no_prior_or_floor_option():
    params = inspect.signature(posterior_variance_mc).parameters
    assert "prior" not in params and "ess_min" not in params


_THREE = np.eye(3) / 3
_DIMENSION_CASES = {
    "log_likelihood": lambda effects, r: log_likelihood(_THREE, effects),
    "gradient": lambda effects, r: gradient(_THREE, effects),
    "kkt_certificate": lambda effects, r: kkt_certificate(_THREE, effects),
    "variance": lambda effects, r: r.variance(_THREE),
    "interval": lambda effects, r: r.interval(_THREE),
    "mc_observable": lambda effects, r: posterior_variance_mc(
        effects, _THREE, r.rho, n_samples=10_000
    ),
    "mc_observable_stack": lambda effects, r: posterior_variance_mc(
        effects, np.stack([_THREE, _THREE]), r.rho, n_samples=10_000
    ),
    "mc_center": lambda effects, r: posterior_variance_mc(
        effects, SX, _THREE, n_samples=10_000
    ),
}


@pytest.mark.parametrize("case", sorted(_DIMENSION_CASES))
def test_operand_of_another_dimension_is_refused(case):
    effects = np.stack([GROUND, EXCITED, np.eye(2) / 2])
    r = build_r_matrix(solve_maxlike(effects).rho, effects)
    with pytest.raises(DimensionMismatch, match="the effects have dimension 2"):
        _DIMENSION_CASES[case](effects, r)


def test_mc_rejects_tiny_sample_budgets():
    with pytest.raises(ValueError):
        posterior_variance_mc([], SZ, np.eye(2) / 2.0, n_samples=100)


def test_mc_rejects_large_dimensions():
    rng = np.random.default_rng(304)
    effects = [random_density(rng, 4)]
    with pytest.raises(ValueError):
        posterior_variance_mc(effects, np.eye(4), np.eye(4) / 4.0)


def test_build_r_matrix_refuses_a_state_of_another_dimension():
    effects = np.stack([GROUND, EXCITED, np.eye(2) / 2])
    with pytest.raises(DimensionMismatch, match="the effects have dimension 2"):
        build_r_matrix(np.eye(3) / 3, effects)

"""Dedicated qubit path: Bloch coordinates and the 3x3 variance rule."""
import numpy as np
import pytest

from conftest import pauli_combination, random_density, random_pure
from trajtomo import (
    Unidentifiable,
    build_r_matrix,
    effects_to_bloch,
    from_bloch,
    solve_maxlike,
    to_bloch,
    variance_bloch,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)


def test_bloch_roundtrip():
    rng = np.random.default_rng(401)
    for _ in range(20):
        v = rng.standard_normal(3)
        v *= rng.random() / np.linalg.norm(v)
        rho = from_bloch(v).matrix
        assert np.abs(to_bloch(rho) - v).max() < 1e-14
    rho = random_density(rng, 2)
    assert np.abs(from_bloch(to_bloch(rho)).matrix - rho).max() < 1e-14


def test_from_bloch_rejects_outside_ball():
    with pytest.raises(ValueError):
        from_bloch([0.8, 0.8, 0.0])


def test_effects_to_bloch():
    effects = np.stack([GROUND, np.eye(2) / 2.0, (np.eye(2) + 0.4 * SX) / 2.0])
    got = effects_to_bloch(effects)
    want = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.4, 0.0, 0.0]])
    assert np.abs(got - want).max() < 1e-14


def test_variance_agrees_with_generic_path_interior():
    rng = np.random.default_rng(403)
    for _ in range(15):
        effects = np.stack([random_density(rng, 2) for _ in range(40)])
        result = solve_maxlike(effects)
        assert result.rank == 2
        r = build_r_matrix(result.rho, effects)
        v = to_bloch(result.rho.matrix)
        e_bloch = effects_to_bloch(effects)
        for a in (np.array([1.0, 0, 0]), np.array([0.2, -0.4, 0.9])):
            generic = r.variance(pauli_combination(a))
            fast = variance_bloch(v, e_bloch, a)
            assert abs(generic - fast) <= 1e-8 * max(generic, fast)


def test_variance_agrees_with_generic_path_boundary():
    rng = np.random.default_rng(404)
    hits = 0
    for trial in range(15):
        # records drawn as projections onto states near a random pure target
        target = random_pure(rng, 2)
        effects = []
        for _ in range(40):
            mix = 0.85 * target + 0.15 * random_density(rng, 2)
            effects.append(mix / np.trace(mix).real)
        effects = np.stack(effects)
        result = solve_maxlike(effects)
        if result.rank != 1:
            continue
        hits += 1
        r = build_r_matrix(result.rho, effects)
        v = to_bloch(result.rho.matrix)
        e_bloch = effects_to_bloch(effects)
        for a in (np.array([0.0, 1.0, 0]), np.array([-0.7, 0.1, 0.4])):
            generic = r.variance(pauli_combination(a))
            fast = variance_bloch(v, e_bloch, a)
            assert abs(generic - fast) <= 1e-8 * max(generic, fast, 1e-30)
    assert hits >= 5


def test_boundary_radial_observable_has_no_spread():
    n = 40
    effects = np.stack([GROUND] * n)
    result = solve_maxlike(effects)
    v = to_bloch(result.rho.matrix)
    e_bloch = effects_to_bloch(effects)
    vhat = v / np.linalg.norm(v)
    assert variance_bloch(v, e_bloch, vhat) == pytest.approx(0.0, abs=1e-12)
    # transverse direction reproduces the exact 2/N spread
    assert variance_bloch(v, e_bloch, np.array([1.0, 0, 0])) == pytest.approx(
        2.0 / n, rel=1e-9
    )


def test_variance_bloch_unidentifiable():
    e = np.tile([0.0, 0.0, 0.5], (30, 1))
    v = np.array([0.0, 0.0, 0.2])
    with pytest.raises(Unidentifiable):
        variance_bloch(v, e, np.array([1.0, 0.0, 0.0]))


def test_variance_bloch_rejects_bad_inputs():
    e = np.tile([0.0, 0.0, 0.5], (3, 1))
    with pytest.raises(ValueError):
        variance_bloch(np.array([1.5, 0, 0]), e, np.array([1.0, 0, 0]))
    with pytest.raises(ValueError):
        variance_bloch(np.zeros(2), e, np.array([1.0, 0, 0]))

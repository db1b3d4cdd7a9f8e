"""Operator layer: validated wrappers, Kraus families, CP maps, projection."""
import numpy as np
import pytest

from conftest import (
    random_density,
    random_family,
    random_hermitian,
    random_pure,
    random_step,
    suffix,
)
from trajtomo import (
    DensityMatrix,
    DimensionMismatch,
    EffectBatch,
    KrausFamily,
    apply_adjoint_cp_map,
    apply_cp_map,
    build_fluorescence_model,
    build_qnd_family,
    gradient,
    project_to_density,
    solve_maxlike,
)
from trajtomo.config import PSD_TOL
from trajtomo.operators import _check_positive, _hermitian

PROJECTIVE = {
    "g": [np.diag([1.0, 0.0]).astype(complex)],
    "e": [np.diag([0.0, 1.0]).astype(complex)],
}


def test_hermitian_operator_symmetrizes():
    # a state and a one-step image are both stored as (M + M*)/2
    raw = np.array([[0.6, 0.1 + 0.05j], [0.1 - 0.03j, 0.4]])
    rho = DensityMatrix(raw)
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    assert np.allclose(rho.matrix, (raw + raw.conj().T) / 2.0)
    assert rho.dim == 2
    raw = np.array([[1.0, 2.0 + 0.5j], [2.0 - 0.3j, -1.0]])
    out = apply_cp_map(KrausFamily.repeated(2, {"id": [np.eye(2)]}, 1), 0, "id", raw)
    assert np.array_equal(out, out.conj().T)
    assert np.allclose(out, (raw + raw.conj().T) / 2.0)
    assert out.trace() == pytest.approx(0.0)


def test_hermitian_operator_matrix_is_read_only():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


# exact dyadic inputs keep every value below free of roundoff, so each
# result must equal its symmetrized literal bit for bit
_X = np.array([[0.5, 0.25 + 0.5j], [0.75 - 0.25j, 0.5]])
_IDENTITY = KrausFamily.repeated(2, {"id": [np.eye(2)]}, 1)
_E = [np.array([[0.75, 0.25j], [-0.25j, 0.25]]), np.diag([0.5, 0.5])]
_PROJ = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]


@pytest.mark.parametrize("compute, want", [
    (lambda: apply_cp_map(_IDENTITY, 0, "id", _X),
     [[0.5, 0.5 + 0.375j], [0.5 - 0.375j, 0.5]]),
    (lambda: apply_adjoint_cp_map(_IDENTITY, 0, "id", _X),
     [[0.5, 0.5 + 0.375j], [0.5 - 0.375j, 0.5]]),
    (lambda: gradient(np.eye(2) / 2, _E), [[2.5, 0.5j], [-0.5j, 1.5]]),
    (lambda: solve_maxlike(_PROJ).gradient, [[2.0, 0.0], [0.0, 2.0]]),
], ids=["apply_cp_map", "apply_adjoint_cp_map", "gradient", "TomographyResult"])
def test_computed_operators_are_read_only_arrays(compute, want):
    out = compute()
    assert type(out) is np.ndarray and out.dtype == complex
    assert np.array_equal(out, np.array(want, dtype=complex))
    with pytest.raises(ValueError):
        out[0, 0] = 5.0


@pytest.mark.parametrize("model, y", [
    (build_qnd_family(8, n_max=3), "g"),
    (build_fluorescence_model(), np.zeros(2)),
], ids=["KrausFamily", "SMEModel"])
def test_step_index_outside_the_model_is_refused(model, y):
    x, n = np.eye(model.dim) / model.dim, model.n_steps
    calls = [apply_cp_map, apply_adjoint_cp_map]
    if isinstance(model, KrausFamily):
        calls += [lambda m, t, y, x: m.step(t), lambda m, t, y, x: m.outcomes(t),
                  lambda m, t, y, x: m.operators(t, y)]
    for t in (-1, n, 10**6):
        for call in calls:
            with pytest.raises(ValueError, match=rf"step index {t} outside \[0, {n}\)"):
                call(model, t, y, x)
    apply_cp_map(model, n - 1, y, x)


def test_density_matrix_validation():
    DensityMatrix(np.eye(3) / 3.0)
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.2, -0.2]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.stack([np.eye(2) / 2] * 2))
    # NaN passes the eigenvalue and trace tests, which compare
    with pytest.raises(ValueError, match="is not finite"):
        DensityMatrix(np.diag([np.nan, 0.5, 0.5]))


@pytest.mark.parametrize(
    "enter",
    [
        DensityMatrix,
        lambda m: EffectBatch(m[None], [0.0], [0]),
        lambda m: solve_maxlike(np.stack([np.eye(2) / 2, m])),
    ],
    ids=["DensityMatrix", "EffectBatch", "plain stack"],
)
@pytest.mark.parametrize(
    "bad, match",
    [
        (np.diag([np.nan, 1.0]), "is not finite"),
        (np.diag([0.5, -0.5]), "has trace 0.000e[+]00, not positive"),
        (np.diag([1.5, -0.5]), "is not positive semidefinite"),
    ],
    ids=["non-finite", "zero trace", "not PSD"],
)
def test_one_validity_rule_guards_states_and_effects(enter, bad, match):
    with pytest.raises(ValueError, match=match):
        enter(bad.astype(complex))


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_positivity_check_agrees_with_the_eigenvalue_rule_near_its_cut(dim):
    # smallest eigenvalue -k PSD_TOL tr(E) for k uniform in [0, 3]: the
    # Cholesky test accepts and refuses the matrices that the smallest
    # eigenvalue does, and a refused stack names the same worst offender
    rng = np.random.default_rng(310 + dim)
    n = 400
    z = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    v = np.linalg.qr(z)[0]
    w = rng.random((n, dim)) + 0.1
    w[:, 0] = -rng.uniform(0.0, 3.0, n) * PSD_TOL * w[:, 1:].sum(axis=1)
    e = _hermitian((v * w[:, None, :]) @ v.conj().transpose(0, 2, 1))
    tr = np.einsum("nii->n", e).real
    low = np.linalg.eigvalsh(e)[:, 0]
    want = low >= -PSD_TOL * tr
    assert 0 < want.sum() < n

    def accepts(k):
        try:
            _check_positive(e[k : k + 1], str)
        except ValueError:
            return False
        return True

    assert [accepts(k) for k in range(n)] == want.tolist()
    _check_positive(e[want], str)
    worst = int(np.argmin(low / tr))
    with pytest.raises(ValueError, match=f"^effect {worst} is not positive semidefinite"):
        _check_positive(e, lambda k: f"effect {k}")


def test_kraus_family_rejects_non_trace_preserving():
    bad = {"g": [np.diag([1.0, 0.0])], "e": [np.diag([0.0, 0.9])]}
    with pytest.raises(ValueError):
        KrausFamily(2, [bad])
    # NaN fails the trace test's comparison, so a non-finite operator is
    # refused on its own, naming its outcome
    nan = {"g": [np.diag([1.0, np.nan])], "e": PROJECTIVE["e"]}
    with pytest.raises(ValueError, match="outcome 'g' is not finite"):
        KrausFamily(2, [nan])


def test_kraus_family_accessors():
    fam = KrausFamily.repeated(2, PROJECTIVE, 4)
    assert fam.dim == 2
    assert fam.n_steps == 4
    assert fam.outcomes(2) == ("g", "e")
    assert len(fam.operators(0, "g")) == 1
    tail = suffix(fam, 3)
    assert tail.n_steps == 1
    with pytest.raises(ValueError):
        suffix(fam, 4)


def test_kraus_family_stores_each_step_once():
    swap = {"a": [np.array([[0, 1], [1, 0]], dtype=complex)]}
    fam = KrausFamily(2, [PROJECTIVE, swap, PROJECTIVE, swap, swap])
    assert fam.step(0) is fam.step(2) and fam.step(1) is fam.step(3) is fam.step(4)
    assert fam.outcomes(3) == ("a",) and fam.outcomes(2) == ("g", "e")
    tail = suffix(fam, 1)
    assert tail.n_steps == 4
    assert tail.step(0) is tail.step(2) is tail.step(3)
    assert tail.outcomes(1) == ("g", "e") and tail.outcomes(3) == ("a",)


def test_kraus_family_unknown_outcome():
    from trajtomo import UnknownOutcome

    fam = KrausFamily.repeated(2, PROJECTIVE, 1)
    with pytest.raises(UnknownOutcome):
        fam.operators(0, "f")


def test_cp_map_projective_example():
    fam = KrausFamily.repeated(2, PROJECTIVE, 1)
    out = apply_cp_map(fam, 0, "g", np.eye(2) / 2.0)
    assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-15)


def test_cp_map_matches_naive_sum():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        fam = random_family(rng, dim, 3, n_outcomes=3, ops_per_outcome=2)
        x = random_density(rng, dim)
        for t in range(3):
            for y in fam.outcomes(t):
                naive = sum(m @ x @ m.conj().T for m in fam.operators(t, y))
                got = apply_cp_map(fam, t, y, x)
                assert np.abs(got - naive).max() < 1e-12


def test_cp_map_dimension_mismatch():
    fam = KrausFamily.repeated(2, PROJECTIVE, 1)
    with pytest.raises(DimensionMismatch):
        apply_cp_map(fam, 0, "g", np.eye(3) / 3.0)


def test_adjoint_identity():
    rng = np.random.default_rng(5)
    for dim in (2, 4):
        fam = random_family(rng, dim, 2, n_outcomes=3, ops_per_outcome=2)
        for _ in range(10):
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            scale = np.linalg.norm(a) * np.linalg.norm(b)
            for y in fam.outcomes(0):
                lhs = np.trace(apply_cp_map(fam, 0, y, a) @ b).real
                rhs = np.trace(a @ apply_adjoint_cp_map(fam, 0, y, b)).real
                assert abs(lhs - rhs) <= 1e-11 * scale


def test_unread_adjoint_map_is_unital():
    rng = np.random.default_rng(6)
    fam = random_family(rng, 3, 1, n_outcomes=4)
    total = sum(
        apply_adjoint_cp_map(fam, 0, y, np.eye(3)) for y in fam.outcomes(0)
    )
    assert np.abs(total - np.eye(3)).max() < 1e-12


def test_project_to_density_fixed_point():
    rng = np.random.default_rng(21)
    rho = random_density(rng, 3)
    out = project_to_density(rho).matrix
    assert np.abs(out - rho).max() < 1e-12


def test_project_to_density_hand_example():
    out = project_to_density(np.diag([0.8, 0.4, -0.2])).matrix
    assert np.allclose(out, np.diag([0.7, 0.3, 0.0]), atol=1e-12)


def test_project_to_density_is_closest_state():
    # the projection must beat every candidate state in Frobenius distance
    rng = np.random.default_rng(22)
    for dim in (2, 3):
        a = random_hermitian(rng, dim) * 0.7
        best = project_to_density(a).matrix
        d_best = np.linalg.norm(best - a)
        for _ in range(400):
            other = random_density(rng, dim)
            assert d_best <= np.linalg.norm(other - a) + 1e-12


def test_project_to_density_output_is_valid():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = random_hermitian(rng, 4)
        out = project_to_density(a)
        w = np.linalg.eigvalsh(out.matrix)
        assert w.min() >= -1e-12
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12


def test_random_step_builder_is_trace_preserving():
    rng = np.random.default_rng(40)
    step = random_step(rng, 3, n_outcomes=3, ops_per_outcome=2)
    total = sum(m.conj().T @ m for ops in step.values() for m in ops)
    assert np.abs(total - np.eye(3)).max() < 1e-12


def test_wrap_rejects_pure_with_wrong_norm():
    rng = np.random.default_rng(41)
    psi = random_pure(rng, 2)
    DensityMatrix(psi)
    with pytest.raises(ValueError):
        DensityMatrix(1.01 * psi)

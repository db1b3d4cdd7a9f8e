"""Full-scale acceptance checks, one test per advertised guarantee.

The earlier suites exercise units in isolation; here each test runs an
entire workflow at realistic size and holds it to a stated tolerance
and wall-clock budget:

 1. forward/backward likelihood duality on random instances
 2. agreement with the classical iterative solver on count data
 3. stationarity certification of every reconstruction
 4. interior error bars against binomial truth and finite differences
 5. boundary error bars against a Monte Carlo posterior oracle
 6. a simulated fluorescence tomography run at N = 40 000, its error
    bars against the model's own information
 7. coverage of the reported confidence intervals
 8. time sweeps tracking the unconditional master equation
 9. a simulated photon-counting run with a mid-record injection
10. closed-form qubit path versus the generic pipeline
11. byte-level determinism of the command line

Every test prints one summary line (visible on failure, or with -s) and
asserts its own elapsed time against the budget.
"""
import math
import time

import numpy as np
import pytest

from conftest import (
    pauli_combination,
    pauli_povm,
    random_density,
    random_family,
    random_hermitian,
    random_pure,
)
from trajtomo import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    backward_sweep,
    backward_sweep_batch,
    build_fluorescence_model,
    build_qnd_family,
    build_r_matrix,
    effects_to_bloch,
    forward_run,
    from_bloch,
    injection_channel,
    lindblad_evolve,
    mean_photon,
    number_operator,
    posterior_variance_mc,
    sample_records,
    solve_maxlike,
    thermal_decay_curve,
    thermal_state,
    to_bloch,
    variance_bloch,
)
from trajtomo.cli import main
from trajtomo.io import matrix_to_json, save_model

FLUOR_SEED = 20260815
FLUOR_MC_SEED = 1
# the defaults of build_fluorescence_model, spelled out because the
# reference widths of criterion 6 are computed from them
FLUOR_PARAMS = {"t1": 4.15e-6, "tphi": 35e-6, "efficiency": 0.24}
# criterion 6: each Laplace half-width over its model-derived reference
WIDTH_RATIO_BAND = (0.8, 1.25)
COVERAGE_SEED = 719
QND_SEED = 20260815

GROUND = np.diag([1.0, 0.0]).astype(complex)
EXCITED = np.diag([0.0, 1.0]).astype(complex)

# Every reconstruction in this file goes through _solve, so the
# stationarity bounds of criterion 3 are enforced at each call site and
# the registry records what was certified.
CERTIFIED: list[tuple[str, int, float, float]] = []


def _solve(effects, label, **kwargs):
    res = solve_maxlike(effects, **kwargs)
    n = res.n_records
    resid = res.kkt.residual
    lam_err = abs(res.lagrange_multiplier - n)
    assert res.certified, f"{label}: solver stopped without certification"
    assert resid <= 1e-7 * n, f"{label}: stationarity residual {resid:.3e}"
    assert lam_err <= 1e-6 * n, f"{label}: multiplier off by {lam_err:.3e}"
    CERTIFIED.append((label, n, resid, lam_err))
    return res


def _rounded_counts(probs, n):
    """Integer counts summing to n, largest remainders win the leftovers."""
    raw = np.asarray(probs, dtype=float) * n
    base = np.floor(raw).astype(int)
    order = np.argsort(raw - base)[::-1]
    base[order[: n - int(base.sum())]] += 1
    return base


def _report(num, label, ok, detail):
    line = f"CRITERION {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. forward/backward duality
# ---------------------------------------------------------------------------


def test_criterion_01_forward_backward_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_d = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        fam = random_family(
            rng,
            dim,
            int(rng.integers(1, 51)),
            n_outcomes=int(rng.integers(2, 4)),
            ops_per_outcome=int(rng.integers(1, 3)),
        )
        [rec] = sample_records(fam, random_density(rng, dim), 1, int(rng.integers(2**31)))
        adj = backward_sweep(fam, rec, (0,))[0]
        for _ in range(20):
            rho = random_density(rng, dim)
            lhs = forward_run(fam, rec, rho).log_prob
            rhs = adj.log_c + math.log(
                np.einsum("ij,ji->", rho, adj.effect.matrix).real
            )
            worst_d = max(worst_d, abs(lhs - rhs))

    model = build_fluorescence_model()
    records = sample_records(model, from_bloch((1.0, 0.0, 0.0)), 50, 20260111)
    worst_c = 0.0
    for rec in records:
        adj = backward_sweep(model, rec, (0,))[0]
        for _ in range(20):
            rho = random_density(rng, 2)
            lhs = forward_run(model, rec, rho).log_prob
            rhs = adj.log_c + math.log(
                np.einsum("ij,ji->", rho, adj.effect.matrix).real
            )
            worst_c = max(worst_c, abs(lhs - rhs))

    dt = time.perf_counter() - t0
    _report(
        1,
        "forward/backward duality",
        worst_d <= 1e-8 and worst_c <= 1e-8 and dt < 30.0,
        f"max gap discrete {worst_d:.2e}, continuous {worst_c:.2e}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. agreement with the classical iterative solver
# ---------------------------------------------------------------------------


def _iterative_oracle(povm, counts, dim):
    """Damped classical fixed-point iteration rho <- S rho S, S = (I + R)/2.

    The undamped map overshoots on commuting (projective) count data and
    settles into a two-cycle; averaging R with the identity keeps the
    same fixed points and converges everywhere.
    """
    effs = np.stack([np.asarray(e, dtype=complex) for e in povm])
    c = np.asarray(counts, dtype=float)
    effs, c = effs[c > 0], c[c > 0]
    n = c.sum()
    eye = np.eye(dim, dtype=complex)
    mat = eye / dim
    for _ in range(300_000):
        traces = np.einsum("nij,ji->n", effs, mat).real
        r = np.einsum("n,nij->ij", c / traces, effs) / n
        s = (eye + r) / 2.0
        new = s @ mat @ s
        new = (new + new.conj().T) / 2.0
        new /= new.trace().real
        done = np.abs(new - mat).max() < 1e-14
        mat = new
        if done:
            break
    return mat


def test_criterion_02_count_data_against_iterative_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    six = [pauli_povm()[k] for k in sorted(pauli_povm())]
    worst = 0.0
    for rep in range(20):
        povm = [GROUND, EXCITED] if rep % 2 else six
        gen = 0.7 * random_density(rng, 2) + 0.3 * np.eye(2) / 2
        probs = np.einsum("nij,ji->n", np.stack(povm), gen).real
        counts = rng.multinomial(200, probs / probs.sum())
        effects = [e for e, c in zip(povm, counts) for _ in range(int(c))]
        res = _solve(effects, f"count data {rep}")
        ref = _iterative_oracle(povm, counts, 2)
        worst = max(worst, float(np.linalg.norm(res.rho.matrix - ref)))
    dt = time.perf_counter() - t0
    _report(
        2,
        "count-data reduction",
        worst <= 1e-6 and dt < 10.0,
        f"max Frobenius gap to iterative solver {worst:.2e} "
        f"over 20 count vectors, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. certification of every reconstruction
# ---------------------------------------------------------------------------


def test_criterion_03_stationarity_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    ranks = []
    for rep in range(6):
        dim = 2 if rep % 2 else 3
        if dim == 2:
            povm = [pauli_povm()[k] for k in sorted(pauli_povm())]
        else:
            _, v = np.linalg.eigh(random_hermitian(rng, 3))
            povm = [np.outer(v[:, k], v[:, k].conj()) for k in range(3)]
        gen = 0.6 * random_density(rng, dim) + 0.4 * np.eye(dim) / dim
        probs = np.einsum("nij,ji->n", np.stack(povm), gen).real
        counts = _rounded_counts(probs / probs.sum(), 240)
        effects = [e for e, c in zip(povm, counts) for _ in range(int(c))]
        res = _solve(effects, f"interior certificate {rep}")
        ranks.append(res.rank == dim)
    for rep in range(6):
        dim = 2 if rep % 2 else 3
        proj = random_pure(rng, dim)
        res = _solve([proj] * 120, f"boundary certificate {rep}")
        ranks.append(res.rank == 1)

    interior = sum(ranks[:6])
    boundary = sum(ranks[6:])
    worst_res = max(r / n for _, n, r, _ in CERTIFIED)
    worst_lam = max(l / n for _, n, _, l in CERTIFIED)
    dt = time.perf_counter() - t0
    _report(
        3,
        "stationarity certification",
        interior == 6 and boundary == 6 and dt < 60.0,
        f"{len(CERTIFIED)} reconstructions certified so far "
        f"(residual <= {worst_res:.1e} N, multiplier gap <= {worst_lam:.1e} N; "
        f"bounds also asserted at every later solve), "
        f"{interior}/6 full-rank and {boundary}/6 rank-one optima, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. interior error bars
# ---------------------------------------------------------------------------


def _log_likelihood_at(mat, effects):
    traces = np.einsum("nij,ji->n", np.stack(effects), mat).real
    return float(np.log(traces).sum())


def test_criterion_04_interior_variance():
    t0 = time.perf_counter()
    effects = [GROUND] * 37 + [EXCITED] * 63
    res = _solve(effects, "binomial variance")
    var = build_r_matrix(res.rho, effects).variance(SIGMA_Z)
    p = 0.63
    truth = 4.0 * p * (1.0 - p) / 100.0
    bin_gap = abs(var - truth) / truth

    rng = np.random.default_rng(404)
    h = 1e-3
    worst = 0.0
    for rep in range(20):
        dim = 2 if rep % 2 else 3
        rho = 0.5 * random_density(rng, dim) + 0.5 * np.eye(dim) / dim
        effs = []
        for _ in range(10):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            e = g @ g.conj().T + 0.05 * np.eye(dim)
            effs.append(e / e.trace().real)
        r = build_r_matrix(rho, effs)
        mats = list(r.basis)
        k = len(mats)
        hess = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                pp = _log_likelihood_at(rho + h * mats[i] + h * mats[j], effs)
                pm = _log_likelihood_at(rho + h * mats[i] - h * mats[j], effs)
                mp = _log_likelihood_at(rho - h * mats[i] + h * mats[j], effs)
                mm = _log_likelihood_at(rho - h * mats[i] - h * mats[j], effs)
                hess[i, j] = (pp - pm - mp + mm) / (4.0 * h * h)
        rel = np.linalg.norm(r.matrix + hess) / np.linalg.norm(r.matrix)
        worst = max(worst, float(rel))

    dt = time.perf_counter() - t0
    _report(
        4,
        "interior variance",
        bin_gap <= 0.05 and worst <= 1e-4 and dt < 60.0,
        f"binomial gap {100 * bin_gap:.2f}% (var {var:.5f} vs 4p(1-p)/N "
        f"{truth:.5f}), worst Hessian mismatch {worst:.2e} over 20 "
        f"full-rank instances, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. boundary error bars against the Monte Carlo oracle
# ---------------------------------------------------------------------------


def test_criterion_05_variance_against_monte_carlo():
    t0 = time.perf_counter()
    six = [pauli_povm()[k] for k in sorted(pauli_povm())]
    rho_true = from_bloch((0.35, -0.2, 0.4)).matrix
    lines = []
    ok = True
    for name, observable, seed in (("interior", SIGMA_Z, 5), ("boundary", SIGMA_X, 6)):
        gaps = []
        for n in (25, 100, 400):
            if name == "interior":
                probs = np.einsum("nij,ji->n", np.stack(six), rho_true).real
                counts = _rounded_counts(probs, n)
                effects = [e for e, c in zip(six, counts) for _ in range(int(c))]
            else:
                effects = [EXCITED] * n
            res = _solve(effects, f"{name} oracle N={n}")
            var_ml = build_r_matrix(res.rho, effects).variance(observable)
            mc = posterior_variance_mc(
                effects, observable, res.rho, n_samples=10**6, seed=seed
            )
            assert mc.ess >= 100.0, f"{name} N={n}: ESS {mc.ess:.0f}"
            gaps.append(abs(mc.variance - var_ml) / var_ml)
        monotone = gaps[0] > gaps[1] > gaps[2]
        ok = ok and monotone and gaps[2] <= 0.15
        lines.append(
            f"{name} gaps {100 * gaps[0]:.1f}/{100 * gaps[1]:.1f}/"
            f"{100 * gaps[2]:.2f}% at N=25/100/400"
        )
    dt = time.perf_counter() - t0
    _report(
        5,
        "Monte Carlo cross-check",
        ok and dt < 600.0,
        "; ".join(lines) + f", {dt:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6 and 8 share one simulated fluorescence data set
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fluorescence_run():
    t0 = time.perf_counter()
    model = build_fluorescence_model(**FLUOR_PARAMS)
    plus = from_bloch((1.0, 0.0, 0.0))
    records = sample_records(model, plus, 40_000, FLUOR_SEED)
    effs = backward_sweep_batch(model, records, start_indices=range(26))
    rmats = {}
    for s in range(26):
        res = _solve(effs[s], f"fluorescence start {s}")
        rmats[s] = build_r_matrix(res.rho, effs[s])
    return {
        "model": model,
        "effects0": effs[0],
        "rmats": rmats,
        "elapsed": time.perf_counter() - t0,
    }


def _quadrature_half_width(n_records, model, *, t1, tphi, efficiency):
    """Two-sigma width on x (or y) from the signal law, dt -> 0 limit.

    Each quadrature signal has mean sqrt(efficiency / (2 t1)) x(t) dt on
    top of white noise of variance dt, and x(t) decays at the rate
    1/t2 = 1/(2 t1) + 1/tphi.  The Fisher information per record of that
    linear signal is the integral of its squared slope over the window.
    """
    t2 = 1.0 / (1.0 / (2.0 * t1) + 1.0 / tphi)
    window = model.n_steps * model.dt
    info = (
        efficiency / (2.0 * t1) * (t2 / 2.0) * (1.0 - math.exp(-2.0 * window / t2))
    )
    return 2.0 / math.sqrt(n_records * info)


def test_criterion_06_fluorescence_run(fluorescence_run):
    t0 = time.perf_counter()
    r = fluorescence_run["rmats"][0]
    effects = fluorescence_run["effects0"]
    truth = {"x": 1.0, "y": 0.0, "z": 0.0}
    obs = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
    # x and y drive the quadrature signals linearly; z has no linear
    # signal, so it is judged against the exact posterior instead
    quad = _quadrature_half_width(
        len(effects), fluorescence_run["model"], **FLUOR_PARAMS
    )
    mc_z = posterior_variance_mc(
        effects, SIGMA_Z, r.rho, n_samples=50_000, seed=FLUOR_MC_SEED
    )
    refs = {"x": quad, "y": quad, "z": 2.0 * math.sqrt(mc_z.variance)}
    lo, hi = WIDTH_RATIO_BAND
    parts = []
    ok = True
    for axis in "xyz":
        iv = r.interval(obs[axis], axis)
        dev_ok = abs(iv.mean - truth[axis]) <= iv.half_width_95
        ratio = iv.half_width_95 / refs[axis]
        win_ok = lo <= ratio <= hi
        ok = ok and dev_ok and win_ok
        parts.append(
            f"{axis}={iv.mean:+.4f} (2 sigma {iv.half_width_95:.4f}, "
            f"true {truth[axis]:+.2f}, dev {'ok' if dev_ok else 'OFF'}, "
            f"ref {refs[axis]:.4f}, ratio {ratio:.3f} in [{lo},{hi}] "
            f"{'ok' if win_ok else 'OFF'})"
        )
    dt = time.perf_counter() - t0 + fluorescence_run["elapsed"]
    _report(
        6,
        "fluorescence tomography at N=40000",
        ok and dt < 900.0,
        "; ".join(parts) + f", z ref ESS {mc_z.ess:.0f}, "
        f"{dt:.0f}s incl. shared data",
    )


# ---------------------------------------------------------------------------
# 7. confidence interval coverage
# ---------------------------------------------------------------------------


def test_criterion_07_interval_coverage():
    t0 = time.perf_counter()
    model = build_fluorescence_model()
    plus = from_bloch((1.0, 0.0, 0.0))
    seeds = np.random.default_rng(COVERAGE_SEED).integers(2**31, size=200)
    hits = 0
    for rep, seed in enumerate(seeds):
        records = sample_records(model, plus, 2_000, int(seed))
        effects = backward_sweep_batch(model, records)[0]
        res = _solve(effects, f"coverage rep {rep}")
        iv = build_r_matrix(res.rho, effects).interval(SIGMA_X, "x")
        hits += abs(iv.mean - 1.0) <= iv.half_width_95
    dt = time.perf_counter() - t0
    _report(
        7,
        "interval coverage",
        180 <= hits <= 198 and dt < 1800.0,
        f"true x covered in {hits}/200 repetitions "
        f"(needs 180..198 for [0.90, 0.99]), {dt:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. sweep against the unconditional master equation
# ---------------------------------------------------------------------------


def test_criterion_08_sweep_tracks_master_equation(fluorescence_run):
    t0 = time.perf_counter()
    model = fluorescence_run["model"]
    ref = lindblad_evolve(model, from_bloch((1.0, 0.0, 0.0)), n_steps=25)
    obs = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
    fracs = {}
    for axis, op in obs.items():
        inside = 0
        for s in range(26):
            iv = fluorescence_run["rmats"][s].interval(op, axis)
            want = np.einsum("ij,ji->", op, ref[s]).real
            inside += abs(iv.mean - want) <= iv.half_width_95
        fracs[axis] = inside / 26.0
    dt = time.perf_counter() - t0 + fluorescence_run["elapsed"]
    _report(
        8,
        "time sweep",
        all(f >= 0.90 for f in fracs.values()) and dt < 900.0,
        "band hit rate over 26 start times "
        + ", ".join(f"{a}={100 * f:.0f}%" for a, f in fracs.items())
        + f", {dt:.0f}s incl. shared data",
    )


# ---------------------------------------------------------------------------
# 9. photon counting with a mid-record injection
# ---------------------------------------------------------------------------


def test_criterion_09_photon_injection_run():
    t0 = time.perf_counter()
    t_cavity, n_bath, step_time = 65e-3, 0.06, 86e-6
    fam = build_qnd_family(2_500, t_cavity=t_cavity, n_bath=n_bath,
                           step_time=step_time)
    chan = injection_channel(fam.dim)
    background = thermal_state(fam.dim, n_bath)
    injected = (chan @ background.matrix.reshape(-1)).reshape(fam.dim, fam.dim)
    n0 = mean_photon(injected)

    records = sample_records(
        fam, background, 250, QND_SEED, interventions={1_000: chan}
    )
    per_tc = t_cavity / step_time
    rel = [-1.3, -1.0, -0.75, -0.5, -0.3, -0.15] + [0.1 * k for k in range(16)]
    starts = [1_000 + round(r * per_tc) for r in rel]
    effs = backward_sweep_batch(fam, records, starts)

    num_op = number_operator(fam.dim)
    est = {}
    for s in starts:
        res = _solve(effs[s], f"photon count start {s}")
        est[s] = build_r_matrix(res.rho, effs[s]).interval(num_op, "n")

    at0 = est[1_000]
    inject_ok = abs(at0.mean - n0) <= at0.half_width_95

    post = [s for s in starts if s >= 1_000]
    times = np.array([(s - 1_000) * step_time for s in post])
    ref = thermal_decay_curve(n0, times, t_cavity=t_cavity, n_bath=n_bath)
    tracked = sum(
        abs(est[s].mean - want) <= est[s].half_width_95
        for s, want in zip(post, ref)
    )

    early = sorted(starts)[:3]
    early_ok = all(abs(est[s].mean - n_bath) <= est[s].half_width_95 for s in early)

    dt = time.perf_counter() - t0
    _report(
        9,
        "photon injection",
        inject_ok and tracked >= 0.9 * len(post) and early_ok and dt < 1200.0,
        f"at injection {at0.mean:.3f} vs {n0:.3f} (2 sigma {at0.half_width_95:.3f}), "
        f"decay tracked {tracked}/{len(post)}, "
        "pre-injection means "
        + "/".join(f"{est[s].mean:.3f}" for s in early)
        + f" vs background {n_bath}, {dt:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. closed-form qubit path
# ---------------------------------------------------------------------------


def test_criterion_10_qubit_fast_path():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    counts = {"interior": 0, "boundary": 0}
    worst = 0.0
    axes = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    projs = [from_bloch(np.array(d, dtype=float)).matrix for d in axes]
    for i in range(100):
        if i % 2 == 0:
            v = rng.standard_normal(3)
            v *= rng.uniform(0.2, 0.7) / np.linalg.norm(v)
            probs = np.array([(1.0 + v @ np.array(d, dtype=float)) / 6.0 for d in axes])
            counts_i = _rounded_counts(probs, 60)
            effects = [p for p, c in zip(projs, counts_i) for _ in range(int(c))]
        else:
            v = rng.standard_normal(3)
            pure = from_bloch(v / np.linalg.norm(v)).matrix
            effects = [pure] * 17
            for _ in range(3):
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                e = g @ g.conj().T
                effects.append(e / e.trace().real)
        res = _solve(effects, f"fast path {i}")
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        generic = build_r_matrix(res.rho, effects).variance(pauli_combination(a))
        fast = variance_bloch(to_bloch(res.rho), effects_to_bloch(effects), a)
        worst = max(worst, abs(generic - fast) / max(generic, fast, 1e-10))
        counts["boundary" if res.rank == 1 else "interior"] += 1
    dt = time.perf_counter() - t0
    _report(
        10,
        "qubit fast path",
        worst <= 1e-8
        and counts["interior"] >= 20
        and counts["boundary"] >= 20
        and dt < 10.0,
        f"max relative gap {worst:.2e} over {counts['interior']} interior "
        f"and {counts['boundary']} boundary instances, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 11. command line determinism
# ---------------------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    model = tmp_path / "model.json"
    g = np.array([[0.65, 0.15], [0.15, 0.25]], dtype=complex)
    save_model(
        model,
        "povm",
        {
            "elements": {"g": matrix_to_json(g), "e": matrix_to_json(np.eye(2) - g)},
            "n_steps": 1,
        },
    )

    recs = [tmp_path / f"r{k}.jsonl" for k in (1, 2)]
    for path in recs:
        code = main(
            ["simulate", "--model", str(model), "--records", str(path),
             "--n-trajectories", "400", "--seed", "17"]
        )
        assert code == 0
    sim_same = recs[0].read_bytes() == recs[1].read_bytes()

    outs = [tmp_path / f"o{k}.csv" for k in (1, 2)]
    for path in outs:
        code = main(
            ["tomography", "--model", str(model), "--records", str(recs[0]),
             "--out", str(path), "--threads", "2"]
        )
        assert code == 0
    tomo_same = outs[0].read_bytes() == outs[1].read_bytes()

    dt = time.perf_counter() - t0
    _report(
        11,
        "command line determinism",
        sim_same and tomo_same and dt < 60.0,
        f"simulate outputs {'identical' if sim_same else 'DIFFER'}, "
        f"tomography outputs {'identical' if tomo_same else 'DIFFER'} "
        f"across repeated seeded runs, {dt:.1f}s",
    )

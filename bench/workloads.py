"""The benchmark's workloads.

Constructing a workload is its set-up: trajtomo is already imported
and the model gets built (and, for the command line, written to a
model file).  ``run(seed, tracer)`` then performs one iteration: draw
records from ``seed``, reconstruct a certified state with an error bar
at every start time, and check the outputs.  Untraced, the draw is
repeated ``draws`` times and each repeat is timed on its own, so that a
short draw gets as many samples as a run can hold.  Only the draws and
the reconstruction are timed; the checks run after the clock stops,
and garbage is collected before each timed region starts.

One operation is one reconstruction at one start time, plus each
command-line invocation.  A failed check fails the operation it
belongs to.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import trajtomo.cli
from trajtomo import (
    DiscreteRecord,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    backward_sweep,
    backward_sweep_batch,
    build_fluorescence_model,
    build_qnd_family,
    build_r_matrix,
    from_bloch,
    injection_channel,
    lindblad_evolve,
    mean_photon,
    number_operator,
    sample_records,
    solve_maxlike,
    thermal_decay_curve,
    thermal_state,
)
from trajtomo.io import matrix_to_json, save_model

from tracing import layer

# criterion 3 of the acceptance suite: residual <= 1e-7 N, |lambda - N| <= 1e-6 N
RESIDUAL_PER_RECORD = 1e-7
MULTIPLIER_PER_RECORD = 1e-6
# estimates must lie this many standard deviations from the reference
Z_LIMIT = 4.0
# effects from the mixed-length batch against the single-record sweep
EFFECT_TOLERANCE = 1e-10

# QND photon counting, with the parameters of acceptance criterion 9
T_CAVITY, N_BATH, STEP_TIME = 65e-3, 0.06, 86e-6
QND_STEPS = 2_500
INJECT_AT = 1_000


def clock() -> float:
    """Collect the garbage earlier work left, then read the clock."""
    gc.collect()
    return time.perf_counter()


def draw_times(draws: int, tracer, draw) -> tuple[list[float], object]:
    """Time ``draw()`` on its own, ``draws`` times untraced and once traced.

    Every call draws the same records from the same seed; the last
    call's result is returned.
    """
    times = []
    for _ in range(1 if tracer else draws):
        t0 = clock()
        result = draw()
        times.append(time.perf_counter() - t0)
    return times, result


@dataclass
class Iteration:
    simulate_s: list[float]  # one sample per draw
    tomography_s: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # problem sizes and per-layer counts for the traced report
    counts: dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(problem)

    def check(self, start: int, problems) -> None:
        """Fail the reconstruction at ``start`` if any problem is not None."""
        found = [p for p in problems if p]
        if found:
            self.fail(f"start {start}: " + "; ".join(found))


def certificate_problem(certified, residual, multiplier, n) -> str | None:
    if not certified:
        return "solver stopped without certification"
    if residual > RESIDUAL_PER_RECORD * n:
        return f"stationarity residual {residual:.3e} exceeds {RESIDUAL_PER_RECORD} N"
    if abs(multiplier - n) > MULTIPLIER_PER_RECORD * n:
        return f"multiplier {multiplier!r} is off N = {n} by more than {MULTIPLIER_PER_RECORD} N"
    return None


def z_problem(label, mean, sigma, want) -> str | None:
    if not abs(mean - want) <= Z_LIMIT * sigma:
        return f"{label} = {mean:.4f} +- {sigma:.4f} is off the reference {want:.4f}"
    return None


def solve_problem(res) -> str | None:
    return certificate_problem(
        res.certified, res.kkt.residual, res.lagrange_multiplier, res.n_records
    )


def _reconstruct(tracer, effects, starts, number) -> dict:
    """Certified state and the photon-number interval at every start time."""
    solve = layer(tracer, solve_maxlike)
    r_matrix = layer(tracer, build_r_matrix)
    results = {}
    for s in starts:
        res = solve(effects[s])
        results[s] = (res, r_matrix(res.rho, effects[s]).interval(number, "n"))
    return results


def _qnd_counts(n_records, record_steps, starts, results) -> dict[str, float]:
    return {
        "records": n_records,
        "record_steps": record_steps,
        "start_times": len(starts),
        "effects": n_records * len(starts),
        "maxlike_iterations": sum(res.n_iterations for res, _ in results.values()),
        "solves": len(results),
        "certified": sum(bool(res.certified) for res, _ in results.values()),
        "rank_deficient": sum(res.rank < res.rho.matrix.shape[0] for res, _ in results.values()),
    }


class FluorescenceCLI:
    """``trajtomo simulate`` then ``trajtomo tomography`` on a heterodyne archive."""

    name = "fluorescence_cli"
    starts = tuple(range(26))
    axes = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
    operations = 2 + len(starts)  # with one simulate command
    draws = 1

    def __init__(self, work_dir: Path, quick: bool = False):
        self.n = 200 if quick else 2_000
        self.model = build_fluorescence_model()
        self.plus = from_bloch((1.0, 0.0, 0.0))
        self.model_path = work_dir / "model.json"
        self.records_path = work_dir / "records.jsonl"
        self.out_path = work_dir / "results.csv"
        save_model(
            self.model_path, "fluorescence", {},
            initial_state=matrix_to_json(self.plus.matrix),
        )
        self._reference = None

    def _cli(self, tracer, command: str, argv: list[str]) -> tuple[int, str]:
        main = layer(tracer, trajtomo.cli.main, f"cli.{command}")
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = main([command, *argv])
        return code, log.getvalue()

    def run(self, seed: int, tracer) -> Iteration:
        simulations = []

        def simulate():
            simulations.append(self._cli(tracer, "simulate", [
                "--model", str(self.model_path), "--records", str(self.records_path),
                "--n-trajectories", str(self.n), "--seed", str(seed),
            ]))

        sim_times, _ = draw_times(self.draws, tracer, simulate)
        t0 = clock()
        tomo_code, tomo_log = self._cli(tracer, "tomography", [
            "--model", str(self.model_path), "--records", str(self.records_path),
            "--out", str(self.out_path),
            "--start-times", ",".join(map(str, self.starts)),
            "--report-ensemble-average",
        ])
        t1 = time.perf_counter()
        # each simulate command is one operation, the tomography command another
        it = Iteration(sim_times, t1 - t0,
                       attempted=len(simulations) + self.operations - 1)
        for sim_code, sim_log in simulations:
            if sim_code != 0:
                it.fail(f"simulate exited with {sim_code}: {sim_log.strip()[-300:]}")
        if tomo_code != 0:
            it.fail(
                f"tomography exited with {tomo_code}: {tomo_log.strip()[-300:]}",
                1 + len(self.starts),
            )
            return it
        self._check(it)
        return it

    def _check(self, it: Iteration) -> None:
        with open(self.out_path, newline="") as fh:
            fh.readline()  # schema line
            rows = list(csv.DictReader(fh))
        expected = 2 * len(self.starts) * len(self.axes)  # estimates + ensemble rows
        if len(rows) != expected:
            it.fail(f"results table has {len(rows)} rows, expected {expected}")
        with open(self.out_path.with_suffix(".state.json")) as fh:
            states = json.load(fh)["states"]
        if self._reference is None:
            self._reference = lindblad_evolve(
                self.model, self.plus, n_steps=max(self.starts)
            )
        estimates = {(int(r["t"]), r["observable"]): r for r in rows}
        for s in self.starts:
            st = states[str(s)]
            problems = [certificate_problem(
                st["certified"], st["kkt_residual"], st["lagrange_multiplier"], self.n
            )]
            # A rank-one estimate's interval spans only the rotations along
            # the pure-state boundary, so it cannot cover a mixed reference;
            # such estimates are counted, and checked for certification only.
            for axis, op in self.axes.items() if st["rank"] == self.model.dim else ():
                row = estimates.get((s, axis))
                want = float(np.einsum("ij,ji->", op, self._reference[s]).real)
                problems.append(
                    f"no {axis} row" if row is None
                    else z_problem(axis, float(row["mean"]), float(row["sigma"]), want)
                )
            it.check(s, problems)
        steps = self.model.n_steps
        it.counts = {
            "records": self.n,
            "record_steps": self.n * steps,
            "start_times": len(self.starts),
            "effects": self.n * len(self.starts),
            "archive_mb": os.path.getsize(self.records_path) / 1e6,
            "maxlike_iterations": sum(st["n_iterations"] for st in states.values()),
            "solves": len(states),
            "certified": sum(bool(st["certified"]) for st in states.values()),
            "rank_deficient": sum(st["rank"] < self.model.dim for st in states.values()),
        }


class _QND:
    """Set-up shared by the photon-counting workloads."""

    def __init__(self):
        self.family = build_qnd_family(
            QND_STEPS, t_cavity=T_CAVITY, n_bath=N_BATH, step_time=STEP_TIME
        )
        self.background = thermal_state(self.family.dim, N_BATH)
        self.number = number_operator(self.family.dim)


class QNDInjection(_QND):
    """Photon counting with a mid-record injection, reconstructed across the decay."""

    name = "qnd_injection"
    relative_starts = [-1.3, -1.0, -0.75, -0.5, -0.3, -0.15] + [0.1 * k for k in range(16)]
    starts = [INJECT_AT + round(r * T_CAVITY / STEP_TIME) for r in relative_starts]
    operations = len(starts)
    draws = 1

    def __init__(self, work_dir: Path, quick: bool = False):
        super().__init__()
        self.n = 60 if quick else 250  # criterion 9's record count
        dim = self.family.dim
        self.channel = injection_channel(dim)
        injected = (self.channel @ self.background.matrix.reshape(-1)).reshape(dim, dim)
        self.n0 = mean_photon(injected)

    def run(self, seed: int, tracer) -> Iteration:
        draw = layer(tracer, sample_records)
        sim_times, records = draw_times(self.draws, tracer, lambda: draw(
            self.family, self.background, self.n, seed,
            interventions={INJECT_AT: self.channel},
        ))
        t0 = clock()
        effects = layer(tracer, backward_sweep_batch)(self.family, records, self.starts)
        results = _reconstruct(tracer, effects, self.starts, self.number)
        t1 = time.perf_counter()
        it = Iteration(sim_times, t1 - t0, attempted=self.operations)
        for s, (res, iv) in results.items():
            problems = [solve_problem(res)]
            if s >= INJECT_AT:
                want = thermal_decay_curve(
                    self.n0, (s - INJECT_AT) * STEP_TIME, t_cavity=T_CAVITY, n_bath=N_BATH
                )
                problems.append(z_problem("n", iv.mean, iv.sigma, float(want)))
            it.check(s, problems)
        it.counts = _qnd_counts(self.n, self.n * QND_STEPS, self.starts, results)
        return it


class QNDMixed(_QND):
    """Photon-counting records of unequal length: the per-record, threaded sweep."""

    name = "qnd_mixed"
    starts = (0, 1_000, 2_000)
    operations = len(starts)
    draws = 4  # a draw takes a twentieth of the reconstruction
    shortest = 2_461

    def __init__(self, work_dir: Path, quick: bool = False):
        super().__init__()
        self.n = 4 if quick else 16

    def _draw(self, seed: int, tracer) -> tuple[list[DiscreteRecord], np.ndarray]:
        full = layer(tracer, sample_records)(self.family, self.background, self.n, seed)
        # distinct lengths, so the batch never shares one length
        lengths = np.random.default_rng([seed, 1]).permutation(
            np.arange(self.shortest, QND_STEPS + 1)
        )[: self.n]
        records = [
            DiscreteRecord(r.id, r.outcomes[:length]) for r, length in zip(full, lengths)
        ]
        return records, lengths

    def run(self, seed: int, tracer) -> Iteration:
        sim_times, (records, lengths) = draw_times(
            self.draws, tracer, lambda: self._draw(seed, tracer)
        )
        t0 = clock()
        effects = layer(tracer, backward_sweep_batch)(
            self.family, records, self.starts, threads=2
        )
        results = _reconstruct(tracer, effects, self.starts, self.number)
        t1 = time.perf_counter()
        it = Iteration(sim_times, t1 - t0, attempted=self.operations)
        problems = {s: [solve_problem(res)] for s, (res, _) in results.items()}
        for i in (int(np.argmin(lengths)), int(np.argmax(lengths))):
            alone = backward_sweep(self.family, records[i], self.starts)
            for s in self.starts:
                batch = effects[s][i]
                gap = max(
                    float(np.abs(batch.effect.matrix - alone[s].effect.matrix).max()),
                    abs(batch.log_c - alone[s].log_c) / max(1.0, abs(alone[s].log_c)),
                )
                if gap > EFFECT_TOLERANCE:
                    problems[s].append(
                        f"record {records[i].id}: batch effect differs from "
                        f"the single-record sweep by {gap:.2e}"
                    )
        for s, found in problems.items():
            it.check(s, found)
        it.counts = _qnd_counts(self.n, int(lengths.sum()), self.starts, results)
        return it


WORKLOADS = {w.name: w for w in (FluorescenceCLI, QNDInjection, QNDMixed)}

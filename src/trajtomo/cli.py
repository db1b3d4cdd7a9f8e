"""Command-line entry points.

Three subcommands cover the round trip:

* ``simulate``    draw measurement records from a model file
* ``tomography``  reconstruct initial states from a record archive
* ``validate``    run the built-in consistency suites and file cross-checks

Exit codes: 0 success, 1 validation failure, 2 unreadable or malformed
input, 3 numerical failure during reconstruction.  Given the same
inputs, output files are reproduced byte for byte.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as tio
from .config import KKT_TOL
from .confidence import build_r_matrix
from .errors import (
    DegenerateLikelihood,
    DegenerateTrace,
    DimensionMismatch,
    EffectiveSampleSizeTooLow,
    IncompletePOVM,
    StepSizeTooLarge,
    Unidentifiable,
    UnknownOutcome,
    ZeroProbability,
)
from .filtering import (
    DiscreteRecord,
    backward_sweep_batch,
    forward_batch,
    forward_run,
    sample_records,
)
from .maxlike import _check_options, solve_maxlike
from .models import number_operator, povm_family
from .operators import KrausFamily, _check_hermitian, apply_adjoint_cp_map, apply_cp_map
from .qubit import PAULIS, effects_to_bloch, to_bloch, variance_bloch

__all__ = ["main"]

_VALIDATION_ERRORS = (UnknownOutcome, DimensionMismatch, IncompletePOVM)
_NUMERICAL_ERRORS = (
    ZeroProbability,
    StepSizeTooLarge,
    DegenerateLikelihood,
    DegenerateTrace,
    EffectiveSampleSizeTooLow,
    Unidentifiable,
)


def _refuse_repeats(values: list, what: str) -> None:
    """Refuse a value listed twice, naming every repeated one."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        listed = ",".join(map(str, repeated))
        raise ValueError(f"{what} must be distinct; repeated: {listed}")


def _check_outputs(outputs: dict, inputs: dict) -> None:
    """Refuse, before any work, an output path that resolves to an input's
    or that cannot be created: a directory, or a file in a directory that
    does not exist."""
    for out_flag, out in outputs.items():
        if out is None:
            continue
        target = Path(out).resolve()
        if target.is_dir() or not target.parent.is_dir():
            where = "it is" if target.is_dir() else f"{target.parent} is not"
            raise ValueError(f"{out_flag} {out} cannot be written: {where} a directory")
        for in_flag, source in inputs.items():
            if source is not None and target == Path(source).resolve():
                raise ValueError(
                    f"{out_flag} {out} is the same file as {in_flag} {source}; "
                    "an output must not overwrite an input"
                )


def _parse_start_times(arg: str) -> list[int]:
    try:
        starts = [int(tok) for tok in arg.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--start-times must be comma-separated integers, got {arg!r}")
    if not starts:
        raise ValueError("--start-times is empty")
    if any(s < 0 for s in starts):
        raise ValueError("start times must be nonnegative")
    _refuse_repeats(starts, "start times")
    return starts


def _parse_observables(arg: str | None, dim: int) -> list[tuple[str, np.ndarray]]:
    """Named observables: x/y/z (qubit), n (photon number), p<k> (population),
    or @file.json for a custom Hermitian matrix.

    An explicitly empty argument means no observables: tomography then
    emits state-only diagnostic rows.
    """
    if arg is None:
        names = ["x", "y", "z"] if dim == 2 else ["n"]
    else:
        names = [tok.strip() for tok in arg.split(",") if tok.strip()]
    paulis = dict(zip("xyz", PAULIS))
    out = []
    for name in names:
        if name in paulis:
            if dim != 2:
                raise ValueError(f"observable {name!r} needs a qubit model")
            out.append((name, paulis[name]))
        elif name == "n":
            out.append((name, number_operator(dim)))
        elif name.startswith("p") and name[1:].isdigit():
            k = int(name[1:])
            if k >= dim:
                raise ValueError(f"population {name!r} exceeds dimension {dim}")
            proj = np.zeros((dim, dim), dtype=complex)
            proj[k, k] = 1.0
            out.append((name, proj))
        elif name.startswith("@"):
            with open(name[1:]) as fh:
                obj = json.load(fh)
            if isinstance(obj, dict) and "matrix" in obj:
                label = str(obj.get("label", Path(name[1:]).stem))
                mat = tio.matrix_from_json(obj["matrix"])
            else:
                label = Path(name[1:]).stem
                mat = tio.matrix_from_json(obj)
            if mat.shape != (dim, dim):
                raise ValueError(
                    f"observable file {name[1:]} has shape {mat.shape}; the "
                    f"model dimension is {dim}"
                )
            _check_hermitian(mat, f"observable file {name[1:]}")
            out.append((label, mat))
        else:
            raise ValueError(f"unknown observable {name!r}")
    _refuse_repeats([label for label, _ in out], "observable labels")
    return out


def _cmd_simulate(args) -> int:
    _check_outputs({"--records": args.records}, {"--model": args.model})
    desc = tio.load_model(args.model)
    model = tio.instantiate_model(desc)
    records = sample_records(
        model,
        tio.initial_state(desc, model),
        args.n_trajectories,
        args.seed,
        interventions=tio.interventions_from_description(desc, model),
    )
    tio.write_records(
        args.records, records, model_description=desc, metadata={"seed": args.seed}
    )
    print(f"wrote {len(records)} records to {args.records}")
    return 0


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def _check_adjoint_identity(model, rng: np.random.Generator) -> float:
    """Worst |<K(A), B> - <A, K*(B)>| / (|A| |B|) over random operator pairs."""
    dim = model.dim
    worst = 0.0
    for _ in range(5):
        a = _random_state(rng, dim) * rng.uniform(0.5, 2.0)
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = b + b.conj().T
        if isinstance(model, KrausFamily):
            ys = model.outcomes(0)
        else:  # one draw of signal increments
            ys = [rng.normal(0.0, math.sqrt(model.dt), size=len(model.monitored))]
        for y in ys:
            ka = apply_cp_map(model, 0, y, a)
            kb = apply_adjoint_cp_map(model, 0, y, b)
            gap = np.einsum("ij,ji->", ka, b) - np.einsum("ij,ji->", a, kb)
            worst = max(worst, abs(gap.real) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return float(worst)


def _check_duality(model, records, rng: np.random.Generator) -> float:
    """Worst gap between the batched backward pass and the step-by-step
    forward filter, over sampled records and random states."""
    sample = records[:20]
    worst = 0.0
    for rec, adj in zip(sample, backward_sweep_batch(model, sample)[0]):
        for _ in range(5):
            rho = _random_state(rng, model.dim)
            fwd = forward_run(model, rec, rho).log_prob
            bwd = adj.log_c + math.log(
                float(np.einsum("ij,ji->", rho, adj.effect.matrix).real)
            )
            worst = max(worst, abs(fwd - bwd))
    return float(worst)


def _binomial_suite() -> tuple[float, float]:
    """(variance gap vs the classical Fisher bound, KKT residual over threshold)
    for a held-out two-outcome counting instance."""
    ground = np.diag([1.0, 0.0]).astype(complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    family = povm_family({"g": ground, "e": excited})
    records = [DiscreteRecord(i, ("g",)) for i in range(30)]
    records += [DiscreteRecord(30 + i, ("e",)) for i in range(70)]
    effects = backward_sweep_batch(family, records)[0]
    result = solve_maxlike(effects)
    p = float(result.rho.matrix[1, 1].real)
    fisher = 4.0 * p * (1.0 - p) / len(records)
    sigma2 = build_r_matrix(result.rho, effects).variance(PAULIS[2])
    gap = abs(sigma2 - fisher) / fisher
    return float(gap), float(result.kkt.residual / result.kkt.threshold)


def _fastpath_suite(rng: np.random.Generator) -> float:
    """Relative gap between the generic and the qubit variance paths."""
    effects = np.stack([_random_state(rng, 2) for _ in range(60)])
    result = solve_maxlike(effects)
    generic = build_r_matrix(result.rho, effects).variance(PAULIS[0])
    fast = variance_bloch(
        to_bloch(result.rho.matrix),
        effects_to_bloch(effects),
        np.array([1.0, 0.0, 0.0]),
    )
    return float(abs(generic - fast) / max(generic, fast))


def _cmd_validate(args) -> int:
    _check_outputs(
        {"--out": args.out}, {"--model": args.model, "--records": args.records}
    )
    desc = tio.load_model(args.model)
    model = tio.instantiate_model(desc)
    rng = np.random.default_rng(20_260_815)
    checks: list[dict] = []

    def add(name: str, measured: float, threshold: float, detail: str = "") -> None:
        entry = {
            "name": name,
            "measured": measured,
            "threshold": threshold,
            "passed": bool(measured <= threshold),
        }
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    add(
        "adjoint_identity",
        _check_adjoint_identity(model, rng),
        1e-11,
        "inner-product match of each one-step map against its adjoint",
    )
    records = None
    if args.records is not None:
        meta, records = tio.read_records(args.records)
        problems = tio.validate_records(desc, model, meta, records)
        add(
            "records_consistent",
            float(len(problems)),
            0.0,
            "; ".join(problems) if problems else
            f"{len(records)} records match kind={desc['kind']}",
        )
        if not problems:
            add(
                "forward_backward_duality",
                _check_duality(model, records, rng),
                1e-8,
                "likelihood of sampled records from both sweep directions",
            )
    fisher_gap, kkt_ratio = _binomial_suite()
    add(
        "kkt_certificate",
        kkt_ratio,
        1.0,
        "solver residual over its certification threshold",
    )
    add(
        "binomial_fisher",
        fisher_gap,
        0.05,
        "counting-statistics variance against the classical Fisher bound",
    )
    add(
        "qubit_fastpath",
        _fastpath_suite(rng),
        1e-8,
        "dedicated qubit variance against the generic path",
    )

    all_passed = all(c["passed"] for c in checks)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(
            f"{status}  {c['name']}: measured {c['measured']:.3e} "
            f"(threshold {c['threshold']:.3e})"
        )
    report = {
        "format": "trajtomo-validate",
        "version": tio.FORMAT_VERSION,
        "model_hash": tio.model_hash(desc),
        "n_records": len(records) if records is not None else 0,
        "checks": checks,
        "passed": all_passed,
    }
    if args.out is not None:
        tio.write_json(args.out, report)
        print(f"report written to {args.out}")
    return 0 if all_passed else 1


def _row(t, observable, mean, sigma, rank, lam, kkt) -> dict:
    """One results-table row, with the 95% bounds mean -+ 2 sigma."""
    bounds = (mean - 2.0 * sigma, mean + 2.0 * sigma)
    values = (t, observable, mean, sigma, *bounds, rank, lam, kkt)
    return dict(zip(tio.RESULT_COLUMNS, values))


def _ensemble_rows(model, desc, records, starts, observables) -> list[dict]:
    filtered = forward_batch(model, records, tio.initial_state(desc, model), starts)
    lengths, nan = records.lengths, math.nan
    rows = []
    for t in starts:
        # filtered[t] holds every record with at least t steps; the estimate
        # at t uses only the records longer than t, and so does this row
        states = filtered[t][lengths[lengths >= t] > t]
        n = states.shape[0]
        for name, op in observables:
            vals = np.einsum("nij,ji->n", states, op).real
            mean = float(vals.mean())
            sem = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else nan
            rows.append(_row(t, f"ensemble:{name}", mean, sem, nan, nan, nan))
    return rows


def _cmd_tomography(args) -> int:
    sidecar = Path(args.out).with_suffix(".state.json")
    _check_outputs(
        {"--out": args.out, f"the state sidecar of --out {args.out},": sidecar},
        {"--model": args.model, "--records": args.records},
    )
    desc = tio.load_model(args.model)
    model = tio.instantiate_model(desc)
    # every argument that the records do not bear on is checked before the read
    starts = _parse_start_times(args.start_times)
    observables = _parse_observables(args.observables, model.dim)
    _check_options(args.max_iterations, args.kkt_tol)
    meta, records = tio.read_records(args.records)
    problems = tio.validate_records(desc, model, meta, records)
    span = int(records.lengths.max())
    for s in starts:
        if s >= span:
            problems.append(
                f"start time {s} is beyond the end of the longest record "
                f"({span} steps)"
            )
    if problems:
        for p in problems:
            print(f"problem: {p}", file=sys.stderr)
        return 1
    effects_by_start = backward_sweep_batch(model, records, starts)
    rows: list[dict] = []
    sidecar_states: dict[str, dict] = {}
    for t in starts:
        effects = effects_by_start[t]
        result = solve_maxlike(
            effects, max_iterations=args.max_iterations, kkt_tol=args.kkt_tol
        )
        if not result.certified:
            print(
                f"warning: t={t} stopped after {result.n_iterations} iterations "
                f"with residual {result.kkt.residual:.3e} (threshold "
                f"{result.kkt.threshold:.3e})",
                file=sys.stderr,
            )
        r_matrix = build_r_matrix(result.rho, effects)
        diag = (result.rank, result.lagrange_multiplier, result.kkt.residual)
        if not observables:
            rows.append(_row(t, "", math.nan, math.nan, *diag))
        for name, op in observables:
            try:
                iv = r_matrix.interval(op, label=name)
                mean, sigma = iv.mean, iv.sigma
            except Unidentifiable as exc:
                print(f"warning: t={t} observable {name}: {exc}", file=sys.stderr)
                mean = float(np.einsum("ij,ji->", op, result.rho.matrix).real)
                sigma = math.nan
            rows.append(_row(t, name, mean, sigma, *diag))
        sidecar_states[str(t)] = {
            "rho": tio.matrix_to_json(result.rho.matrix),
            "log_likelihood": result.log_likelihood,
            "certified": result.certified,
            "rank": result.rank,
            "lagrange_multiplier": result.lagrange_multiplier,
            "kkt_residual": result.kkt.residual,
            "n_iterations": result.n_iterations,
        }
        print(
            f"t={t}: rank {result.rank}, log-likelihood {result.log_likelihood:.6f}, "
            f"certified {result.certified}"
        )
    if args.report_ensemble_average:
        rows.extend(_ensemble_rows(model, desc, records, starts, observables))
    # the table lands only with its sidecar: both are written, then moved
    with tio._landing(sidecar, args.out) as (sidecar_tmp, out_tmp):
        tio.write_results_csv(out_tmp, rows)
        tio.write_json(
            sidecar_tmp,
            {
                "format": "trajtomo-tomography",
                "version": tio.FORMAT_VERSION,
                "model_hash": tio.model_hash(desc),
                "start_times": starts,
                "states": sidecar_states,
            },
        )
    print(f"wrote {len(rows)} rows to {args.out} (states in {sidecar})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajtomo",
        description="Initial-state tomography from measurement trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw records from a model file")
    sim.add_argument("--model", required=True, help="model description JSON")
    sim.add_argument("--records", required=True, help="output record archive (JSONL)")
    sim.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sim.add_argument(
        "--n-trajectories", type=int, default=100,
        help="number of records to draw (default 100)",
    )
    sim.set_defaults(func=_cmd_simulate)

    tom = sub.add_parser("tomography", help="reconstruct states from records")
    tom.add_argument("--model", required=True, help="model description JSON")
    tom.add_argument("--records", required=True, help="input record archive (JSONL)")
    tom.add_argument("--out", required=True, help="output results CSV")
    tom.add_argument(
        "--start-times", default="0",
        help="comma-separated step indices to reconstruct at (default 0)",
    )
    tom.add_argument(
        "--observables", default=None,
        help="comma-separated observable names: x,y,z for qubits, n and p<k> "
        "for photon-number models (default depends on dimension)",
    )
    tom.add_argument(
        "--threads", type=int, default=None,
        help="accepted and ignored: every batch runs in one vectorized pass",
    )
    tom.add_argument(
        "--report-ensemble-average", action="store_true",
        help="also report forward-filtered ensemble averages as ensemble:<name> rows",
    )
    tom.add_argument(
        "--kkt-tol", type=float, default=KKT_TOL,
        help="per-record optimality residual at which the solver certifies "
        f"(default {KKT_TOL:g}; finite and positive)",
    )
    tom.add_argument(
        "--max-iterations", type=int, default=10_000,
        help="iteration cap for the likelihood solver (default 10000; "
        "nonnegative)",
    )
    tom.set_defaults(func=_cmd_tomography)

    val = sub.add_parser(
        "validate",
        help="run consistency suites against a model file and optional records",
    )
    val.add_argument("--model", required=True, help="model description JSON")
    val.add_argument("--records", default=None, help="record archive to cross-check")
    val.add_argument("--out", default=None, help="write the JSON check report here")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Cross-version regression check against committed golden outputs.

The archives under tests/data/golden/ are fixed inputs, and rerunning
``simulate`` with the case's seed must reproduce them: the photon-counting
archive byte for byte, the signal archive's header and ids exactly and its
increments to SIGNAL_ABS.  Rerunning ``tomography`` on them must reproduce
the committed CSV and state sidecar: ranks, certification flags and
iteration counts exactly, every other number to 1e-10 relative (absolute
below magnitude one), and the KKT residual, a cancellation residual, to
1e-6 of its certification threshold.  Refactors that change the
floating-point summation order of the compression or the solver must
stay inside these bounds.

Run this file as a script to rebuild the golden files from the current
code; do that only for a deliberate change of results, and say so.
"""
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from trajtomo import from_bloch, thermal_state
from trajtomo.cli import main
from trajtomo.config import KKT_TOL
from trajtomo.io import matrix_to_json, save_model

GOLDEN = Path(__file__).parent / "data" / "golden"
REL = 1e-10
KKT_REL = 1e-6  # of the certification threshold
# the increments were drawn before the tilted-Gaussian draw was last
# rewritten twice, which together moved them by up to 8.0e-16; the later
# rewrite (the chain rule in the signal's own coordinates, Newton seeded
# by Abramowitz & Stegun 26.2.23) moved them by 3.6e-17, and by up to
# 6.1e-15 over 2 000 records from |+> at seed 7
SIGNAL_ABS = 1e-14

CASES = {
    "fluorescence": {
        "parameters": {},
        "extras": lambda: {
            "initial_state": matrix_to_json(from_bloch((1.0, 0.0, 0.0)).matrix)
        },
        "n_records": 100,
        "seed": 20261018,
        "tomography": ["--start-times", "0,5,25", "--report-ensemble-average"],
    },
    "qnd": {
        "parameters": {"n_steps": 300},
        "extras": lambda: {
            "initial_state": matrix_to_json(thermal_state(8, 0.06).matrix),
            "interventions": [{"step": 150, "kind": "injection"}],
        },
        "n_records": 40,
        "seed": 20261019,
        "tomography": ["--start-times", "0,150,250"],
    },
}


def _paths(root: Path, name: str) -> dict[str, Path]:
    return {
        "model": root / f"{name}.model.json",
        "records": root / f"{name}.records.jsonl",
        "csv": root / f"{name}.csv",
        "state": root / f"{name}.state.json",
    }


def _tomography(name: str, out: Path) -> None:
    p = _paths(GOLDEN, name)
    code = main([
        "tomography", "--model", str(p["model"]), "--records", str(p["records"]),
        "--out", str(out), *CASES[name]["tomography"],
    ])
    assert code == 0


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        fh.readline()  # schema line
        return list(csv.DictReader(fh))


def _close(new: float, old: float, bound: float) -> bool:
    if math.isnan(old):
        return math.isnan(new)
    return abs(new - old) <= bound


def _simulate(name: str, model: Path, out: Path) -> int:
    case = CASES[name]
    return main([
        "simulate", "--model", str(model), "--records", str(out),
        "--n-trajectories", str(case["n_records"]), "--seed", str(case["seed"]),
    ])


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_reproduces_the_golden_archive(name, tmp_path):
    p, out = _paths(GOLDEN, name), tmp_path / f"{name}.records.jsonl"
    assert _simulate(name, p["model"], out) == 0
    if name == "qnd":
        assert out.read_bytes() == p["records"].read_bytes()
        return
    got, want = out.read_text().splitlines(), p["records"].read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for new, old in zip(map(json.loads, got[1:]), map(json.loads, want[1:])):
        assert (new["id"], new["dt"]) == (old["id"], old["dt"])
        drift = np.abs(np.array(new["increments"]) - np.array(old["increments"]))
        assert drift.max() <= SIGNAL_ABS, f"record {old['id']}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_tomography_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    _tomography(name, out)
    threshold = KKT_TOL * CASES[name]["n_records"]
    kkt_bound = KKT_REL * threshold

    want_rows = _read_csv(_paths(GOLDEN, name)["csv"])
    got_rows = _read_csv(out)
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows, want_rows):
        where = f"t={want['t']} {want['observable']}"
        assert (got["t"], got["observable"]) == (want["t"], want["observable"])
        assert got["rank"] == want["rank"], where
        for col in ("mean", "sigma", "lo95", "hi95", "lambda"):
            old, new = float(want[col]), float(got[col])
            assert _close(new, old, REL * max(1.0, abs(old))), f"{where} {col}"
        old, new = float(want["kkt_residual"]), float(got["kkt_residual"])
        assert _close(new, old, kkt_bound), f"{where} kkt_residual"

    want_states = json.loads(_paths(GOLDEN, name)["state"].read_text())
    got_states = json.loads(out.with_suffix(".state.json").read_text())
    assert got_states["start_times"] == want_states["start_times"]
    assert got_states["model_hash"] == want_states["model_hash"]
    for t, want in want_states["states"].items():
        got = got_states["states"][t]
        for key in ("rank", "certified", "n_iterations"):
            assert got[key] == want[key], f"t={t} {key}"
        for key in ("log_likelihood", "lagrange_multiplier"):
            assert _close(got[key], want[key], REL * max(1.0, abs(want[key]))), \
                f"t={t} {key}"
        assert _close(got["kkt_residual"], want["kkt_residual"], kkt_bound), \
            f"t={t} kkt_residual"
        old, new = np.array(want["rho"]), np.array(got["rho"])
        assert np.all(np.abs(new - old) <= REL * np.maximum(1.0, np.abs(old))), \
            f"t={t} rho"


def _regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, case in CASES.items():
        p = _paths(GOLDEN, name)
        save_model(p["model"], name, case["parameters"], **case["extras"]())
        code = _simulate(name, p["model"], p["records"])
        if code:
            raise SystemExit(code)
        _tomography(name, p["csv"])


if __name__ == "__main__":
    sys.exit(_regenerate())

"""End-to-end command-line behaviour: round trips, exit codes, determinism."""
import csv
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajtomo.cli
import trajtomo.io
from trajtomo import (
    ContinuousRecord,
    DiscreteRecord,
    backward_sweep_batch,
    build_fluorescence_model,
    forward_run,
    from_bloch,
    sample_records,
    solve_maxlike,
)
from trajtomo.cli import main
from trajtomo.io import (
    RESULTS_SCHEMA,
    instantiate_model,
    matrix_from_json,
    matrix_to_json,
    save_model,
    write_records,
)

GROUND = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
EXCITED = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def povm_model(path, *, tilt=0.0, n_steps=1, **extras):
    """Two-outcome counting model; tilt perturbs the elements slightly."""
    g = np.array([[0.7 + tilt, 0.1], [0.1, 0.2]], dtype=complex)
    e = np.eye(2) - g
    return save_model(
        path,
        "povm",
        {
            "elements": {"g": matrix_to_json(g), "e": matrix_to_json(e)},
            "n_steps": n_steps,
        },
        **extras,
    )


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_tomography_validate_roundtrip(tmp_path, capsys):
    model = tmp_path / "model.json"
    povm_model(model)
    recs = tmp_path / "recs.jsonl"
    assert run(["simulate", "--model", model, "--records", recs,
                "--n-trajectories", 300, "--seed", 11]) == 0

    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["tomography", "--model", model, "--records", recs,
                "--out", out1]) == 0
    assert run(["tomography", "--model", model, "--records", recs,
                "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    side1 = out1.with_suffix(".state.json")
    side2 = out2.with_suffix(".state.json")
    assert side1.read_bytes() == side2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0] == RESULTS_SCHEMA
    names = {ln.split(",")[1] for ln in lines[2:]}
    assert names == {"x", "y", "z"}
    state = json.loads(side1.read_text())["states"]["0"]
    assert state["certified"] is True

    report = tmp_path / "report.json"
    assert run(["validate", "--model", model, "--records", recs,
                "--out", report]) == 0
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert {c["name"] for c in payload["checks"]} >= {
        "adjoint_identity",
        "records_consistent",
        "forward_backward_duality",
        "kkt_certificate",
        "binomial_fisher",
        "qubit_fastpath",
    }


def test_simulate_is_deterministic(tmp_path):
    model = tmp_path / "model.json"
    povm_model(model)
    r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    run(["simulate", "--model", model, "--records", r1, "--seed", 3])
    run(["simulate", "--model", model, "--records", r2, "--seed", 3])
    assert r1.read_bytes() == r2.read_bytes()
    r3 = tmp_path / "r3.jsonl"
    run(["simulate", "--model", model, "--records", r3, "--seed", 4])
    assert r1.read_bytes() != r3.read_bytes()


def test_missing_input_exits_2(tmp_path, capsys):
    assert run(["tomography", "--model", tmp_path / "nope.json",
                "--records", tmp_path / "r.jsonl", "--out", tmp_path / "o.csv"]) == 2
    model = tmp_path / "model.json"
    povm_model(model)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert run(["tomography", "--model", model, "--records", bad,
                "--out", tmp_path / "o.csv"]) == 2


@pytest.mark.parametrize("command, output, input_", [
    ("tomography", "--out", "--records"),
    ("tomography", "--out", "--model"),
    ("tomography", "sidecar", "--records"),
    ("tomography", "sidecar", "--model"),
    ("validate", "--out", "--records"),
    ("validate", "--out", "--model"),
    ("simulate", "--records", "--model"),
])
def test_an_output_that_names_an_input_exits_2_before_any_work(
    command, output, input_, tmp_path, capsys
):
    inputs = {"--model": tmp_path / "model.json", "--records": tmp_path / "recs.jsonl"}
    if output == "sidecar":  # --out x.csv writes its states to x.state.json
        inputs[input_] = tmp_path / "x.state.json"
    povm_model(inputs["--model"])
    assert run(["simulate", "--model", inputs["--model"],
                "--records", inputs["--records"]]) == 0
    # the same file under another spelling
    (tmp_path / "sub").mkdir()
    alias = tmp_path / "sub" / ".." / inputs[input_].name
    if output == "sidecar":
        output, out, named = "--out", alias.with_name("x.csv"), [alias.with_name("x.csv")]
    else:
        out, named = alias, []
    named += [alias, inputs[input_]]
    argv = [command, "--model", inputs["--model"]]
    if command != "simulate":
        argv += ["--records", inputs["--records"]]
    before = {p: p.read_bytes() for p in inputs.values()}
    capsys.readouterr()
    assert run(argv + [output, out]) == 2
    err = capsys.readouterr().err
    assert all(str(p) in err for p in named) and "overwrite" in err
    assert {p: p.read_bytes() for p in inputs.values()} == before


@pytest.mark.parametrize("command, output, blocked", [
    ("tomography", "--out", "missing"),
    ("tomography", "--out", "directory"),
    ("tomography", "sidecar", "directory"),
    ("validate", "--out", "missing"),
    ("validate", "--out", "directory"),
    ("simulate", "--records", "missing"),
    ("simulate", "--records", "directory"),
])
def test_an_unwritable_output_exits_2_before_any_work(
    command, output, blocked, tmp_path, capsys, monkeypatch
):
    model, recs = tmp_path / "model.json", tmp_path / "recs.jsonl"
    povm_model(model)
    assert run(["simulate", "--model", model, "--records", recs]) == 0
    # the path that cannot be written: a directory, or a file in a missing one
    if blocked == "directory":
        bad = tmp_path / ("y.state.json" if output == "sidecar" else "y.out")
        bad.mkdir()
    else:
        bad = tmp_path / "missing" / "y.out"
    out = bad.with_name("y.csv") if output == "sidecar" else bad

    def work(*args, **kwargs):
        raise AssertionError("work began before the outputs were checked")

    monkeypatch.setattr(trajtomo.io, "read_records", work)
    monkeypatch.setattr(trajtomo.cli, "sample_records", work)
    argv = [command, "--model", model]
    if command != "simulate":
        argv += ["--records", recs]
    capsys.readouterr()
    assert run(argv + ["--out" if output == "sidecar" else output, out]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "cannot be written" in err
    assert not out.exists() or out.is_dir()  # no result without its sidecar


def test_state_only_and_unidentifiable_rows(tmp_path, capsys):
    # the photon-counting estimate is diagonal, and its records say nothing
    # about coherences, so an off-diagonal observable has no error bar
    golden = Path(__file__).parent / "data" / "golden"
    off = np.zeros((8, 8))
    off[0, 1] = off[1, 0] = 1.0
    obs = tmp_path / "offdiag.json"
    obs.write_text(json.dumps({"label": "c01", "matrix": matrix_to_json(off)}))
    tables = {}
    for value in (f"@{obs},n", ""):
        out = tmp_path / f"o{len(tables)}.csv"
        assert run(["tomography", "--model", golden / "qnd.model.json",
                    "--records", golden / "qnd.records.jsonl", "--out", out,
                    "--start-times", "0,150", "--observables", value]) == 0
        tables[value] = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
    err = capsys.readouterr().err
    states = json.loads((tmp_path / "o0.state.json").read_text())["states"]
    estimates, state_only = tables[f"@{obs},n"], tables[""]
    assert [row[:2] for row in estimates] == [
        ["0", "c01"], ["0", "n"], ["150", "c01"], ["150", "n"]
    ]
    for t, coherence, number, bare in zip(
        ("0", "150"), estimates[::2], estimates[1::2], state_only
    ):
        assert f"warning: t={t} observable c01: " in err
        rho = matrix_from_json(states[t]["rho"])
        mean = float(np.einsum("ij,ji->", off, rho).real)
        # the rank, multiplier and residual cells are the estimate's own
        assert coherence == [t, "c01", repr(mean), "nan", "nan", "nan", *number[6:]]
        assert bare == [t, "", "nan", "nan", "nan", "nan", *number[6:]]


def test_model_mismatch_exits_1(tmp_path, capsys):
    model_a, model_b = tmp_path / "a.json", tmp_path / "b.json"
    povm_model(model_a)
    povm_model(model_b, tilt=0.05)
    recs = tmp_path / "recs.jsonl"
    run(["simulate", "--model", model_a, "--records", recs])
    assert run(["tomography", "--model", model_b, "--records", recs,
                "--out", tmp_path / "o.csv"]) == 1
    assert "different model" in capsys.readouterr().err
    assert run(["validate", "--model", model_b, "--records", recs]) == 1


def test_start_beyond_records_exits_1(tmp_path, capsys):
    model = tmp_path / "model.json"
    povm_model(model)
    recs = tmp_path / "recs.jsonl"
    run(["simulate", "--model", model, "--records", recs])
    assert run(["tomography", "--model", model, "--records", recs,
                "--out", tmp_path / "o.csv", "--start-times", "1"]) == 1
    assert "longest record" in capsys.readouterr().err


def test_short_record_does_not_cap_start_times(tmp_path):
    # one two-step record among six-step ones: starts 2 and 3 use the 39
    # records longer than the start instead of failing on the shortest
    # record, and the ensemble row at each start averages the same 39
    model = tmp_path / "model.json"
    desc = povm_model(model, n_steps=6)
    family = instantiate_model(desc)
    rho0 = np.eye(2) / 2
    records = list(sample_records(family, rho0, 40, rng_seed=17))
    records[12] = DiscreteRecord(12, records[12].outcomes[:2])
    recs = tmp_path / "recs.jsonl"
    write_records(recs, records, model_description=desc)
    out = tmp_path / "o.csv"
    assert run(["tomography", "--model", model, "--records", recs, "--out", out,
                "--start-times", "0,2,3", "--observables", "z",
                "--report-ensemble-average"]) == 0
    sidecar = json.loads(out.with_suffix(".state.json").read_text())["states"]
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    for s in (2, 3):
        effects = backward_sweep_batch(family, records, (s,))[s]
        assert len(effects) == 39
        want = solve_maxlike(effects).rho.matrix
        assert np.abs(matrix_from_json(sidecar[str(s)]["rho"]) - want).max() < 1e-12
        row = next(
            r for r in rows if r["t"] == str(s) and r["observable"] == "ensemble:z"
        )
        states = [forward_run(family, r, rho0).states[s]
                  for r in records if len(r) > s]
        assert len(states) == 39
        vals = np.array([st[0, 0].real - st[1, 1].real for st in states])
        assert float(row["mean"]) == pytest.approx(vals.mean(), abs=1e-12)
        assert float(row["sigma"]) == pytest.approx(
            vals.std(ddof=1) / np.sqrt(39), abs=1e-12
        )


def test_impossible_record_exits_3(tmp_path, capsys):
    model = tmp_path / "model.json"
    desc = save_model(
        model, "qnd",
        {"n_steps": 1, "n_max": 2, "detection_efficiency": 1.0},
    )
    recs = tmp_path / "recs.jsonl"
    # every probe atom is detected, so an undetected outcome cannot occur
    write_records(recs, [DiscreteRecord(0, ("no",))], model_description=desc)
    assert run(["tomography", "--model", model, "--records", recs,
                "--out", tmp_path / "o.csv"]) == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("step", [20, 5000, -3])
def test_intervention_outside_the_model_exits_2(tmp_path, capsys, step):
    model = tmp_path / "model.json"
    save_model(
        model, "qnd", {"n_steps": 20, "n_max": 2},
        interventions=[{"step": step, "kind": "injection"}],
    )
    recs = tmp_path / "recs.jsonl"
    assert run(["simulate", "--model", model, "--records", recs,
                "--n-trajectories", 5]) == 2
    assert f"intervention at step {step} lies outside" in capsys.readouterr().err
    assert not recs.exists()


def test_repeated_intervention_step_exits_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    save_model(
        model, "qnd", {"n_steps": 20, "n_max": 2},
        interventions=[{"step": 3, "kind": "injection"},
                       {"step": 3, "kind": "injection", "strength": 0.2}],
    )
    recs = tmp_path / "recs.jsonl"
    assert run(["simulate", "--model", model, "--records", recs,
                "--n-trajectories", 5]) == 2
    assert "two interventions at step 3" in capsys.readouterr().err
    assert not recs.exists()


@pytest.mark.parametrize("kind, parameters, name", [
    ("qnd", {"t_cavity": 0}, "t_cavity must lie in (0, inf], got 0.0"),
    ("qnd", {"n_bath": -0.1}, "n_bath must lie in [0, inf), got -0.1"),
    ("qnd", {"step_time": -1e-6}, "step_time must lie in [0, inf), got -1e-06"),
    ("qnd", {"phase_offsets": []}, "phase_offsets must hold at least one offset"),
    ("fluorescence", {"t1": 0}, "t1 must lie in (0, inf], got 0.0"),
    ("fluorescence", {"tphi": 0}, "tphi must lie in (0, inf], got 0.0"),
    ("qnd", {"phase_per_photon": float("nan")},
     "Kraus operator for outcome 'g' is not finite"),
    ("fluorescence", {"t1": True}, "t1 must be a number, got True"),
    ("fluorescence", {"efficiency": "0.24"}, "efficiency must be a number, got '0.24'"),
    ("fluorescence", {"dt": True}, "dt must be a number, got True"),
    ("qnd", {"step_time": True}, "step_time must be a number, got True"),
    ("qnd", {"phase_offsets": [0.0, True]},
     "phase_offsets entry must be a number, got True"),
    ("povm", {"elements": {"g": GROUND, "e": EXCITED}, "n_step": 3},
     "povm_family() got an unexpected keyword argument 'n_step'"),
])
def test_bad_model_parameters_exit_2_naming_the_parameter(
    tmp_path, capsys, kind, parameters, name
):
    model, recs = tmp_path / "model.json", tmp_path / "recs.jsonl"
    save_model(model, kind, {"n_steps": 4, **parameters})
    assert run(["simulate", "--model", model, "--records", recs]) == 2
    assert f"error: {name}" in capsys.readouterr().err
    assert run(["validate", "--model", model]) == 2
    assert f"error: {name}" in capsys.readouterr().err
    assert not recs.exists()


@pytest.mark.parametrize("kind, parameters, extras, message", [
    ("qnd", {"n_steps": 20, "n_max": 2},
     {"interventions": [{"step": 9.7, "kind": "injection"}]},
     "intervention step must be an integer, got 9.7"),
    ("qnd", {"n_steps": 2.9, "n_max": 2}, {}, "n_steps must be an integer, got 2.9"),
    ("fluorescence", {"n_steps": 46.7}, {}, "n_steps must be an integer, got 46.7"),
    ("povm", None, {}, "n_steps must be an integer, got 2.9"),
    ("qnd", {"n_steps": True, "n_max": 2}, {}, "n_steps must be an integer, got True"),
    ("qnd", {"n_steps": 20, "n_max": 7.0}, {}, "n_max must be an integer, got 7.0"),
    ("qnd", {"n_steps": 20, "n_max": True}, {}, "n_max must be an integer, got True"),
    ("qnd", {"n_steps": 20, "n_max": 2},
     {"interventions": [{"step": 9, "kind": "injection", "n_hot": "4",
                         "strength": True}]},
     "n_hot must be a number, got '4'"),
    ("qnd", {"n_steps": 20, "n_max": 2},
     {"interventions": [{"step": 9, "kind": "injection", "strength": True}]},
     "strength must be a number, got True"),
])
def test_non_integer_model_fields_exit_2(
    tmp_path, capsys, kind, parameters, extras, message
):
    model, recs = tmp_path / "model.json", tmp_path / "recs.jsonl"
    if kind == "povm":
        povm_model(model, n_steps=2.9)
    else:
        save_model(model, kind, parameters, **extras)
    assert run(["simulate", "--model", model, "--records", recs]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not recs.exists()


QND_FILE = {"format": "trajtomo-model", "version": 1, "kind": "qnd",
            "parameters": {"n_steps": 20, "n_max": 2}}


@pytest.mark.parametrize("fields, message", [
    ({"kind": "povm", "parameters": {"elements": [GROUND, EXCITED]}},
     "povm elements must be an object, got list"),
    ({"parameters": [1, 2]}, "model parameters must be an object, got list"),
    ({"interventions": [{"kind": "injection"}]}, "intervention 0 has no 'step'"),
    ({"interventions": [5]}, "intervention 0 must be an object, got int"),
    ({"interventions": 5}, "interventions must be an array, got int"),
])
def test_model_file_fields_of_the_wrong_shape_exit_2_naming_the_field(
    tmp_path, capsys, fields, message
):
    model, recs = tmp_path / "model.json", tmp_path / "recs.jsonl"
    model.write_text(json.dumps({**QND_FILE, **fields}))
    assert run(["simulate", "--model", model, "--records", recs]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not recs.exists()


def test_a_failed_sidecar_write_leaves_no_table_and_no_temporary_file(
    tmp_path, capsys, monkeypatch
):
    model, recs = tmp_path / "model.json", tmp_path / "recs.jsonl"
    povm_model(model)
    assert run(["simulate", "--model", model, "--records", recs]) == 0
    before = sorted(tmp_path.iterdir())

    def fail(path, payload):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(trajtomo.io, "write_json", fail)
    capsys.readouterr()
    out = tmp_path / "o.csv"
    assert run(["tomography", "--model", model, "--records", recs, "--out", out]) == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("second, message", [
    ('"id":0', "lines 2 and 3: both hold record id 0"),
    ('"id":1.9', "line 3: id must be an integer, got 1.9"),
    ('"id":true', "line 3: id must be an integer, got True"),
])
def test_archive_with_a_repeated_or_non_integer_id_exits_2(
    tmp_path, capsys, second, message
):
    model, recs = tmp_path / "model.json", tmp_path / "recs.jsonl"
    povm_model(model)
    assert run(["simulate", "--model", model, "--records", recs,
                "--n-trajectories", 3]) == 0
    lines = recs.read_text().splitlines(keepends=True)
    assert lines[2].startswith('{"id":1,')
    lines[2] = lines[2].replace('"id":1', second, 1)
    recs.write_text("".join(lines))
    capsys.readouterr()
    out = tmp_path / "o.csv"
    assert run(["tomography", "--model", model, "--records", recs, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert run(["validate", "--model", model, "--records", recs]) == 2
    assert message in capsys.readouterr().err


def test_repeated_observable_labels_exit_2_before_the_archive_is_read(
    tmp_path, capsys, monkeypatch
):
    model, recs = tmp_path / "model.json", tmp_path / "recs.jsonl"
    povm_model(model)
    assert run(["simulate", "--model", model, "--records", recs]) == 0
    obs = tmp_path / "proj.json"
    obs.write_text(json.dumps({"label": "x", "matrix": GROUND}))

    def read_records(path):
        raise AssertionError("the archive was read before the arguments were checked")

    monkeypatch.setattr(trajtomo.io, "read_records", read_records)
    out = tmp_path / "o.csv"
    for value in ("x,x,z", f"z,x,@{obs}"):
        assert run(["tomography", "--model", model, "--records", recs, "--out", out,
                    "--observables", value]) == 2
        assert ("observable labels must be distinct; repeated: x"
                in capsys.readouterr().err)
    assert not out.exists()


def test_unknown_observable_exits_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    povm_model(model)
    recs = tmp_path / "recs.jsonl"
    run(["simulate", "--model", model, "--records", recs])
    assert run(["tomography", "--model", model, "--records", recs,
                "--out", tmp_path / "o.csv", "--observables", "q"]) == 2


def qnd_archive(tmp_path):
    """40 photon-counting records of 40 steps; solves there take 12-19 iterations."""
    model, recs = tmp_path / "model.json", tmp_path / "recs.jsonl"
    save_model(model, "qnd", {"n_steps": 40, "n_max": 3})
    assert run(["simulate", "--model", model, "--records", recs,
                "--n-trajectories", 40, "--seed", 1]) == 0
    return model, recs


def solve_states(model, recs, out, *options):
    assert run(["tomography", "--model", model, "--records", recs, "--out", out,
                "--start-times", "0,10", *options]) == 0
    return json.loads(out.with_suffix(".state.json").read_text())["states"]


def test_max_iterations_reaches_the_solver(tmp_path, capsys):
    model, recs = qnd_archive(tmp_path)
    capsys.readouterr()
    states = solve_states(model, recs, tmp_path / "o.csv", "--max-iterations", 1)
    err = capsys.readouterr().err
    for t, st in states.items():
        assert (st["n_iterations"], st["certified"]) == (1, False)
        assert f"warning: t={t} stopped after 1 iterations" in err


def test_loose_kkt_tol_certifies_no_later_than_the_default(tmp_path, capsys):
    model, recs = qnd_archive(tmp_path)
    default = solve_states(model, recs, tmp_path / "a.csv")
    loose = solve_states(model, recs, tmp_path / "b.csv", "--kkt-tol", 1e-3)
    assert "warning" not in capsys.readouterr().err
    for t in default:
        assert default[t]["certified"] and loose[t]["certified"]
        assert loose[t]["n_iterations"] <= default[t]["n_iterations"]
    # the looser threshold is reached: it certifies strictly earlier somewhere
    assert sum(st["n_iterations"] for st in loose.values()) < sum(
        st["n_iterations"] for st in default.values()
    )


@pytest.mark.parametrize("option, value, message", [
    ("--kkt-tol", "0", "kkt_tol must lie in (0, inf), got 0.0"),
    ("--kkt-tol", "-1", "kkt_tol must lie in (0, inf), got -1.0"),
    ("--kkt-tol", "nan", "kkt_tol must lie in (0, inf), got nan"),
    ("--max-iterations", "-3", "max_iterations must be nonnegative"),
    ("--start-times", "0,10,0", "start times must be distinct; repeated: 0"),
    ("--start-times", "0,b", "--start-times must be comma-separated integers"),
    ("--observables", "n,q", "unknown observable 'q'"),
    ("--observables", "x", "observable 'x' needs a qubit model"),
    ("--observables", "p4", "population 'p4' exceeds dimension 4"),
])
def test_bad_solver_options_and_repeated_starts_exit_2(
    tmp_path, capsys, monkeypatch, option, value, message
):
    model, recs = qnd_archive(tmp_path)
    out = tmp_path / "o.csv"

    def read_records(path):
        raise AssertionError("the archive was read before the arguments were checked")

    monkeypatch.setattr(trajtomo.io, "read_records", read_records)
    assert run(["tomography", "--model", model, "--records", recs, "--out", out,
                option, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".state.json").exists()


def test_observable_from_file(tmp_path):
    model = tmp_path / "model.json"
    povm_model(model)
    recs = tmp_path / "recs.jsonl"
    run(["simulate", "--model", model, "--records", recs])
    obs = tmp_path / "proj.json"
    obs.write_text(json.dumps({"label": "pg", "matrix": GROUND}))
    out = tmp_path / "o.csv"
    assert run(["tomography", "--model", model, "--records", recs,
                "--out", out, "--observables", f"@{obs}"]) == 0
    names = [ln.split(",")[1] for ln in out.read_text().splitlines()[2:]]
    assert names == ["pg"]


def test_non_hermitian_observable_file_exits_2(tmp_path, capsys):
    # within np.allclose's default relative tolerance, but not within 1e-12
    model, recs = tmp_path / "model.json", tmp_path / "recs.jsonl"
    povm_model(model)
    assert run(["simulate", "--model", model, "--records", recs]) == 0
    obs = tmp_path / "skew.json"
    obs.write_text(json.dumps([[[1.0, 0.0], [1.000001, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]))
    out = tmp_path / "o.csv"
    assert run(["tomography", "--model", model, "--records", recs,
                "--out", out, "--observables", f"@{obs}"]) == 2
    assert f"error: observable file {obs} must be Hermitian" in capsys.readouterr().err
    assert not out.exists()


def test_threads_flag_does_not_change_results(tmp_path):
    # --threads is accepted and ignored: a discrete archive of unequal record
    # lengths runs in one batched pass, ensemble rows included
    model = tmp_path / "model.json"
    rho0 = np.array([[0.8, 0.3], [0.3, 0.2]], dtype=complex)
    desc = povm_model(model, n_steps=6, initial_state=matrix_to_json(rho0))
    family = instantiate_model(desc)
    full = sample_records(family, rho0, 60, rng_seed=9)
    records = [DiscreteRecord(r.id, r.outcomes[: 3 + r.id % 4]) for r in full]
    recs = tmp_path / "recs.jsonl"
    write_records(recs, records, model_description=desc)
    tables = []
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}.csv"
        assert run(["tomography", "--model", model, "--records", recs, "--out", out,
                    "--start-times", "0,2", "--observables", "z",
                    "--report-ensemble-average", "--threads", threads]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    rows = list(csv.DictReader(tables[0].decode().splitlines()[1:]))
    means = {(int(r["t"]), r["observable"]): float(r["mean"]) for r in rows}
    z = np.diag([1.0, -1.0])
    for s in (0, 2):
        states = [forward_run(family, r, rho0).states[s] for r in records]
        want = np.mean([np.trace(st @ z).real for st in states])
        assert means[(s, "ensemble:z")] == pytest.approx(want, abs=1e-12)


def test_ensemble_average_rows(tmp_path):
    model = tmp_path / "model.json"
    povm_model(model)
    recs = tmp_path / "recs.jsonl"
    run(["simulate", "--model", model, "--records", recs])
    out = tmp_path / "o.csv"
    assert run(["tomography", "--model", model, "--records", recs, "--out", out,
                "--observables", "z", "--report-ensemble-average"]) == 0
    names = [ln.split(",")[1] for ln in out.read_text().splitlines()[2:]]
    assert names == ["z", "ensemble:z"]


def test_mixed_length_signal_archive_with_ensemble_average(tmp_path, capsys):
    model = tmp_path / "model.json"
    desc = save_model(model, "fluorescence", {"n_steps": 12})
    full = sample_records(
        build_fluorescence_model(n_steps=12), from_bloch((1.0, 0.0, 0.0)), 40, 5
    )
    records = [
        ContinuousRecord(r.id, r.dt, r.increments[: 8 + r.id % 5]) for r in full
    ]
    recs = tmp_path / "recs.jsonl"
    write_records(recs, records, model_description=desc)
    out = tmp_path / "o.csv"
    assert run(["tomography", "--model", model, "--records", recs, "--out", out,
                "--start-times", "0,4", "--observables", "x",
                "--report-ensemble-average"]) == 0
    rows = [ln.split(",")[:2] for ln in out.read_text().splitlines()[2:]]
    assert rows == [["0", "x"], ["4", "x"], ["0", "ensemble:x"], ["4", "ensemble:x"]]


def test_an_archive_without_records_is_unreadable(tmp_path, capsys):
    model = tmp_path / "model.json"
    povm_model(model)
    recs = tmp_path / "empty.jsonl"
    recs.write_text(
        '{"format": "trajtomo-records", "version": 1, "record_type": "discrete", '
        '"n_records": 0}\n'
    )
    for command in (["tomography", "--out", tmp_path / "o.csv"], ["validate"]):
        assert run([*command, "--model", model, "--records", recs]) == 2
        assert "empty.jsonl holds no records" in capsys.readouterr().err


def _signal_archive(path, records):
    with open(path, "w") as fh:
        fh.write('{"format": "trajtomo-records", "version": 1, '
                 '"record_type": "continuous"}\n')
        for i, (dt, channels) in enumerate(records):
            line = {"id": i, "dt": dt, "increments": [[0.0] * channels] * 6}
            fh.write(json.dumps(line))
            fh.write("\n")


def test_signal_archives_that_cannot_form_one_batch_or_fit_the_model(tmp_path, capsys):
    model = tmp_path / "model.json"
    save_model(model, "fluorescence", {"n_steps": 6})
    dt = build_fluorescence_model(n_steps=6).dt
    recs, out = tmp_path / "recs.jsonl", tmp_path / "o.csv"
    # a grid step or channel count unlike the first record's: unreadable
    for mixed in ([(dt, 2), (2 * dt, 2)], [(dt, 2), (dt, 1)]):
        _signal_archive(recs, mixed)
        for command in (["tomography", "--out", out], ["validate"]):
            assert run([*command, "--model", model, "--records", recs]) == 2
            assert "recs.jsonl, line 3:" in capsys.readouterr().err
    # one shared grid that is not the model's: a validation failure of the
    # batch, reported once and naming the first record
    _signal_archive(recs, [(2 * dt, 2), (2 * dt, 2)])
    assert run(["tomography", "--out", out, "--model", model, "--records", recs]) == 1
    problems = [
        line for line in capsys.readouterr().err.splitlines() if "problem:" in line
    ]
    assert len(problems) == 1
    assert "record 0 was taken on a" in problems[0]
    assert "grid but the model steps by" in problems[0]
    assert run(["validate", "--model", model, "--records", recs]) == 1

def _distribution_missing(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return True
    return False


# Only an installed distribution puts the script on PATH.  The guard is on
# the distribution, not on PATH, so an install that lost its script fails.
@pytest.mark.skipif(
    _distribution_missing("trajtomo"),
    reason="distribution 'trajtomo' is not installed (PackageNotFoundError)",
)
def test_console_script_is_installed():
    exe = shutil.which("trajtomo")
    assert exe is not None
    proc = subprocess.run(
        [exe, "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "tomography" in proc.stdout


def test_console_script_entry_point(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"trajtomo": "trajtomo.cli:main"}
    # what the generated script does: import the target, then exit with it
    module, attr = scripts["trajtomo"].split(":")
    target = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["trajtomo", "--help"])
    with pytest.raises(SystemExit) as exc:
        sys.exit(target())
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "simulate" in out and "tomography" in out


def package_env():
    """The environment with the directory of the imported trajtomo first on
    the path: pytest puts src/ on its own import path only, and a child
    interpreter must import the same package."""
    env = dict(os.environ)
    root = str(Path(trajtomo.io.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([root, *filter(None, [env.get("PYTHONPATH")])])
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trajtomo.cli", "--help"],
        capture_output=True, text=True, timeout=60, env=package_env(),
    )
    assert proc.returncode == 0


def test_import_loads_no_scipy():
    # SciPy is a test-only dependency: importing the package and its CLI
    # must not pull it in
    code = (
        "import sys, trajtomo, trajtomo.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

"""File formats: determinism, roundtrips and cross-checks."""
import json
import math

import numpy as np
import pytest

from trajtomo import (
    ContinuousRecord,
    DiscreteRecord,
    KrausFamily,
    SMEModel,
    build_fluorescence_model,
    build_qnd_family,
)
from trajtomo.io import (
    RESULT_COLUMNS,
    RESULTS_SCHEMA,
    canonical_json,
    initial_state,
    instantiate_model,
    interventions_from_description,
    load_model,
    matrix_from_json,
    matrix_to_json,
    model_hash,
    read_records,
    save_model,
    validate_records,
    write_json,
    write_records,
    write_results_csv,
)


def test_matrix_roundtrip():
    rng = np.random.default_rng(61)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json([[1.0, 2.0]])
    with pytest.raises(ValueError):
        matrix_from_json([[["a", "b"]]])


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [1.5, 2.25]})
    b = canonical_json({"a": [1.5, 2.25], "b": 1})
    assert a == b == '{"a":[1.5,2.25],"b":1}'


def test_model_hash_tracks_content_not_order():
    d1 = {"kind": "povm", "parameters": {"x": 1.0, "y": 2.0}}
    d2 = {"parameters": {"y": 2.0, "x": 1.0}, "kind": "povm"}
    assert model_hash(d1) == model_hash(d2)
    d3 = {"kind": "povm", "parameters": {"x": 1.0, "y": 2.1}}
    assert model_hash(d1) != model_hash(d3)


def test_save_load_instantiate_all_kinds(tmp_path):
    fl = tmp_path / "fl.json"
    save_model(fl, "fluorescence", {"t1": 4.15e-6, "n_steps": 10})
    model = instantiate_model(load_model(fl))
    assert isinstance(model, SMEModel)
    assert model.n_steps == 10

    qnd = tmp_path / "qnd.json"
    save_model(qnd, "qnd", {"n_steps": 5, "n_max": 3, "phase_offsets": [0.0, 1.0]})
    fam = instantiate_model(load_model(qnd))
    assert isinstance(fam, KrausFamily)
    assert fam.dim == 4 and fam.n_steps == 5

    povm = tmp_path / "povm.json"
    half = (np.eye(2) / 2).astype(complex)
    save_model(
        povm,
        "povm",
        {"elements": {"up": matrix_to_json(half), "dn": matrix_to_json(half)},
         "n_steps": 3},
    )
    fam = instantiate_model(load_model(povm))
    assert fam.dim == 2 and fam.n_steps == 3

    with pytest.raises(ValueError):
        instantiate_model({"kind": "laser", "parameters": {}})


def test_save_model_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(p1, "fluorescence", {"t1": 4.15e-6})
    save_model(p2, "fluorescence", {"t1": 4.15e-6})
    assert p1.read_bytes() == p2.read_bytes()


def test_load_model_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"hello": 1}\n')
    with pytest.raises(ValueError):
        load_model(p)
    p.write_text(
        '{"format": "trajtomo-model", "version": 99, "kind": "povm", '
        '"parameters": {}}\n'
    )
    with pytest.raises(ValueError, match="version"):
        load_model(p)
    p.write_text('{"format": "trajtomo-model", "version": 1}\n')
    with pytest.raises(ValueError, match="kind"):
        load_model(p)


def test_discrete_records_roundtrip(tmp_path):
    path = tmp_path / "recs.jsonl"
    records = [DiscreteRecord(0, ("g", "e")), DiscreteRecord(1, ("no",))]
    desc = {"kind": "qnd", "parameters": {"n_steps": 2}}
    meta = write_records(path, records, model_description=desc, metadata={"note": "x"})
    assert meta["record_type"] == "discrete"
    got_meta, got = read_records(path)
    assert got_meta["model_hash"] == model_hash(desc)
    assert got_meta["model"] == desc
    assert got_meta["note"] == "x"
    assert [(r.id, r.outcomes) for r in got] == [(0, ("g", "e")), (1, ("no",))]


def test_continuous_records_roundtrip_exact_floats(tmp_path):
    path = tmp_path / "recs.jsonl"
    rng = np.random.default_rng(67)
    records = [
        ContinuousRecord(i, 2e-7, rng.standard_normal((5, 2)) * 1e-4)
        for i in range(3)
    ]
    write_records(path, records)
    _, got = read_records(path)
    for a, b in zip(records, got):
        assert b.dt == a.dt
        assert np.array_equal(b.increments, a.increments)


def test_write_records_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_records(tmp_path / "x.jsonl", [])
    with pytest.raises(TypeError):
        write_records(tmp_path / "x.jsonl", [object()])


@pytest.mark.parametrize("key", [
    "format", "version", "record_type", "n_records", "model_hash", "model",
])
def test_write_records_refuses_metadata_that_overrides_the_header(tmp_path, key):
    # n_records=3 on five records, or a record_type that is not theirs, would
    # otherwise write an archive that read_records refuses
    path = tmp_path / "x.jsonl"
    records = [DiscreteRecord(i, ("g",)) for i in range(5)]
    with pytest.raises(ValueError, match=f"metadata keys \\['{key}'\\]"):
        write_records(path, records, metadata={key: 3, "note": "x"})
    assert not path.exists()


def test_read_records_rejects_corrupt_archives(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text('{"something": "else"}\n')
    with pytest.raises(ValueError, match="archive"):
        read_records(p)
    p.write_text(
        '{"format": "trajtomo-records", "version": 7, "record_type": "discrete"}\n'
    )
    with pytest.raises(ValueError, match="version"):
        read_records(p)
    p.write_text(
        '{"format": "trajtomo-records", "version": 1, "record_type": "discrete", '
        '"n_records": 2}\n{"id": 0, "outcomes": ["g"]}\n'
    )
    with pytest.raises(ValueError, match="declares"):
        read_records(p)


def test_read_records_names_the_bad_line(tmp_path):
    p = tmp_path / "x.jsonl"
    head = '{"format": "trajtomo-records", "version": 1, "record_type": "%s"}\n'
    good = '{"id": 0, "dt": 1e-3, "increments": [[0.1, 0.2]]}\n'
    cases = {
        '{"id": 1, "dt": 1e-3, "increments": [[0.1,\n': "line 4: malformed JSON",
        '{"id": 1, "dt": 1e-3}\n': "line 4: missing key 'increments'",
        '{"id": 1, "dt": 1e-3, "increments": [["a"]]}\n':
            'line 4: increments must hold numbers, got "a"',
        # strings and bools are refused, not converted to 0.5 and 1.0
        '{"id": 1, "dt": 1e-3, "increments": [["0.5", true]]}\n':
            'line 4: increments must hold numbers, got "0.5"',
        '{"id": 1, "dt": 1e-3, "increments": [[0.5, true]]}\n':
            "line 4: increments must hold numbers, got true",
        '{"id": 1, "dt": 1e-3, "increments": [[false], [0.5]]}\n':
            "line 4: increments must hold numbers, got false",
        '{"id": 1, "dt": "0.001", "increments": [[0.1, 0.2]]}\n':
            'line 4: dt must be a number, got "0.001"',
        '{"id": 1, "dt": true, "increments": [[0.1, 0.2]]}\n':
            "line 4: dt must be a number, got true",
    }
    for line, message in cases.items():
        p.write_text(head % "continuous" + good + "\n" + line)
        with pytest.raises(ValueError, match=message):
            read_records(p)
    p.write_text(head % "discrete" + '{"outcomes": ["g"]}\n')
    with pytest.raises(ValueError, match="line 2: missing key 'id'"):
        read_records(p)
    # a string is not the outcome sequence of its characters
    p.write_text(head % "discrete" + '{"id": 0, "outcomes": "ge"}\n')
    with pytest.raises(ValueError, match='line 2: outcomes must be an array, got "ge"'):
        read_records(p)


def test_read_records_refuses_repeated_and_non_integer_ids(tmp_path):
    p = tmp_path / "x.jsonl"
    head = '{"format": "trajtomo-records", "version": 1, "record_type": "%s"}\n'
    line = '{"id": %s, "outcomes": ["g"]}\n'
    p.write_text(head % "discrete" + line % 1 + line % 2 + line % 1)
    with pytest.raises(ValueError, match="lines 2 and 4: both hold record id 1"):
        read_records(p)
    p.write_text(head % "discrete" + line % 1 + line % 1.9)
    with pytest.raises(ValueError, match=r"line 3: id must be an integer, got 1\.9"):
        read_records(p)
    p.write_text(
        head % "continuous" + '{"id": 0.5, "dt": 1e-3, "increments": [[0.1]]}\n'
    )
    with pytest.raises(ValueError, match=r"line 2: id must be an integer, got 0\.5"):
        read_records(p)
    # a JSON true is not the record id 1
    p.write_text(head % "discrete" + line % 0 + line % "true")
    with pytest.raises(ValueError, match="line 3: id must be an integer, got True"):
        read_records(p)


def test_step_counts_and_steps_are_refused_not_truncated():
    step = {"g": [np.eye(2)]}
    assert KrausFamily.repeated(2, step, np.int64(3)).n_steps == 3
    for build in (
        lambda: KrausFamily.repeated(2, step, 3.9),
        lambda: build_fluorescence_model(n_steps=46.7),
        lambda: build_qnd_family(2.9, n_max=2),
        lambda: instantiate_model({"kind": "povm", "parameters": {
            "elements": {"g": matrix_to_json(np.eye(2))}, "n_steps": 2.9,
        }}),
    ):
        with pytest.raises(TypeError, match=r"n_steps must be an integer, got \d+\.\d"):
            build()
    for build, message in (
        (lambda: KrausFamily.repeated(2, step, True), "n_steps must be an integer, got True"),
        (lambda: build_qnd_family(3, n_max=7.0), "n_max must be an integer, got 7.0"),
        (lambda: build_qnd_family(3, n_max=False), "n_max must be an integer, got False"),
    ):
        with pytest.raises(TypeError, match=message):
            build()
    desc, model = qnd_desc_and_model()
    events = [{"step": 2.7, "kind": "injection"}]
    with pytest.raises(TypeError, match="intervention step must be an integer"):
        interventions_from_description(dict(desc, interventions=events), model)


def test_read_records_refuses_an_archive_without_records(tmp_path):
    p = tmp_path / "none.jsonl"
    p.write_text(
        '{"format": "trajtomo-records", "version": 1, "record_type": "discrete", '
        '"n_records": 0}\n'
    )
    with pytest.raises(ValueError, match=r"none\.jsonl holds no records"):
        read_records(p)


@pytest.mark.parametrize("third", [
    '{"id": 2, "dt": 2e-3, "increments": [[0.1, 0.2]]}',  # another grid step
    '{"id": 2, "dt": 1e-3, "increments": [[0.1]]}',  # another channel count
], ids=["dt", "channels"])
def test_read_records_names_the_line_that_cannot_join_the_batch(tmp_path, third):
    p = tmp_path / "x.jsonl"
    good = '{"id": %d, "dt": 1e-3, "increments": [[0.1, 0.2]]}\n'
    p.write_text(
        '{"format": "trajtomo-records", "version": 1, "record_type": "continuous"}\n'
        + good % 0 + good % 1 + third + "\n"
    )
    with pytest.raises(ValueError, match="line 4: .* one batch holds one grid"):
        read_records(p)


def qnd_desc_and_model():
    desc = {"kind": "qnd", "parameters": {"n_steps": 3, "n_max": 3}}
    return desc, instantiate_model(desc)


def test_validate_records_hash_and_outcomes():
    desc, model = qnd_desc_and_model()
    meta = {"record_type": "discrete", "model_hash": model_hash(desc)}
    ok = [DiscreteRecord(0, ("g", "e", "no"))]
    assert validate_records(desc, model, meta, ok) == []
    bad_hash = dict(meta, model_hash="0" * 64)
    assert "different model" in validate_records(desc, model, bad_hash, ok)[0]
    wrong = validate_records(desc, model, meta, [DiscreteRecord(0, ("up",))])
    assert "unknown outcome" in wrong[0]
    long = validate_records(desc, model, meta, [DiscreteRecord(0, ("g",) * 5)])
    assert "3 steps" in long[0]
    typed = validate_records(desc, model, {"record_type": "continuous"}, ok)
    assert "discrete" in typed[0]


def test_validate_records_continuous_checks():
    desc = {"kind": "fluorescence", "parameters": {"n_steps": 4}}
    model = instantiate_model(desc)
    meta = {"record_type": "continuous"}
    ok = [ContinuousRecord(0, model.dt, np.zeros((4, 2)))]
    assert validate_records(desc, model, meta, ok) == []
    probs = validate_records(
        desc, model, meta, [ContinuousRecord(0, model.dt * 3, np.zeros((4, 2)))]
    )
    assert "grid" in probs[0]
    probs = validate_records(
        desc, model, meta, [ContinuousRecord(0, model.dt, np.zeros((4, 1)))]
    )
    assert "channels" in probs[0]
    probs = validate_records(
        desc, model, meta, [ContinuousRecord(0, model.dt, np.zeros((9, 2)))]
    )
    assert "4" in probs[0]
    nan = np.zeros((4, 2))
    nan[2, 1] = np.nan
    probs = validate_records(
        desc, model, meta, [ContinuousRecord(0, model.dt, nan)]
    )
    assert "non-finite" in probs[0]


def test_initial_state_default_and_declared():
    desc, model = qnd_desc_and_model()
    rho = initial_state(desc, model)
    assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-15
    declared = dict(desc, initial_state=matrix_to_json(np.diag([1.0, 0, 0, 0])))
    rho = initial_state(declared, model)
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="shape"):
        initial_state(dict(desc, initial_state=matrix_to_json(np.eye(2) / 2)), model)


def test_interventions_from_description():
    desc, model = qnd_desc_and_model()
    assert interventions_from_description(desc, model) == {}
    with_ev = dict(
        desc, interventions=[{"step": 2, "kind": "injection", "strength": 0.2}]
    )
    out = interventions_from_description(with_ev, model)
    assert set(out) == {2}
    assert out[2].shape == (16, 16)
    with pytest.raises(ValueError, match="kind"):
        interventions_from_description(
            dict(desc, interventions=[{"step": 0, "kind": "reset"}]), model
        )
    # a second event at one step would silently replace the first
    twice = [{"step": 2, "kind": "injection"}, {"step": 2, "strength": 0.2}]
    with pytest.raises(ValueError, match="two interventions at step 2"):
        interventions_from_description(dict(desc, interventions=twice), model)
    fl = {"kind": "fluorescence", "parameters": {}}
    sme = instantiate_model(fl)
    with pytest.raises(ValueError, match="discrete"):
        interventions_from_description(
            dict(fl, interventions=[{"step": 0}]), sme
        )


def test_results_csv_layout(tmp_path):
    path = tmp_path / "res.csv"
    row = {
        "t": 0,
        "observable": "sx",
        "mean": 0.1 + 2e-17,
        "sigma": float("nan"),
        "lo95": -1.0,
        "hi95": 1.0,
        "rank": 2,
        "lambda": 100.0,
        "kkt_residual": 1e-9,
    }
    write_results_csv(path, [row])
    lines = path.read_text().splitlines()
    assert lines[0] == RESULTS_SCHEMA
    assert lines[1] == ",".join(RESULT_COLUMNS)
    cells = lines[2].split(",")
    assert cells[2] == repr(0.1 + 2e-17)
    assert cells[3] == "nan"
    assert float(cells[2]) == 0.1 + 2e-17
    with pytest.raises(ValueError, match="missing"):
        write_results_csv(path, [{"t": 0}])


def test_write_json_canonical(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": 2, "a": [1, 2]})
    assert path.read_text() == '{"a":[1,2],"b":2}\n'
    assert json.loads(path.read_text()) == {"a": [1, 2], "b": 2}

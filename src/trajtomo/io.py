"""File formats: model descriptions, record archives, result tables.

Three formats, all plain text and deterministic byte for byte:

* model files are JSON with a kind tag and keyword parameters; complex
  matrices are encoded entrywise as [real, imag] pairs;
* record archives are JSON Lines: a metadata object first (carrying the
  SHA-256 of the canonical model JSON so archives and models can be
  cross-checked), then one object per record;
* results are CSV with a fixed column schema, plus a JSON sidecar that
  stores each reconstructed state in full.

Determinism matters because reruns are compared byte for byte: all JSON
is emitted with sorted keys and fixed separators, and floats use their
shortest round-trip representation.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
from typing import Mapping, Sequence

import numpy as np

from .filtering import ContinuousRecord, DiscreteRecord, RecordBatch, _pack
from .models import (
    build_fluorescence_model,
    build_qnd_family,
    injection_channel,
    povm_family,
)
from .operators import DensityMatrix, KrausFamily, _integer

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "canonical_json",
    "model_hash",
    "save_model",
    "load_model",
    "instantiate_model",
    "initial_state",
    "interventions_from_description",
    "write_records",
    "read_records",
    "validate_records",
    "RESULT_COLUMNS",
    "RESULTS_SCHEMA",
    "write_results_csv",
    "write_json",
]

RECORDS_FORMAT = "trajtomo-records"
MODEL_FORMAT = "trajtomo-model"
FORMAT_VERSION = 1

RESULT_COLUMNS = (
    "t",
    "observable",
    "mean",
    "sigma",
    "lo95",
    "hi95",
    "rank",
    "lambda",
    "kkt_residual",
)


def matrix_to_json(mat) -> list:
    """Nested lists of [real, imag] pairs for a complex matrix."""
    m = np.asarray(mat, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(obj) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix encoding: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(
            "matrix encoding must be rows of [real, imag] pairs, got shape "
            f"{arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def model_hash(description: Mapping) -> str:
    return hashlib.sha256(canonical_json(description).encode()).hexdigest()


def save_model(path, kind: str, parameters: Mapping, **extras) -> dict:
    """Write a model description file; returns the description written."""
    desc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "kind": str(kind),
        "parameters": dict(parameters),
        **extras,
    }
    write_json(path, desc)
    return desc


def load_model(path) -> dict:
    with open(path) as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict) or desc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path} is not a model description file")
    if desc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {desc.get('version')!r}")
    if "kind" not in desc or "parameters" not in desc:
        raise ValueError("model description needs 'kind' and 'parameters'")
    return desc


def instantiate_model(description: Mapping):
    """Build the model object a description denotes.

    Returns an SMEModel for continuous kinds and a KrausFamily for
    discrete kinds.
    """
    kind = description["kind"]
    params = dict(_object(description["parameters"], "model parameters"))
    if kind == "fluorescence":
        return build_fluorescence_model(**params)
    if kind == "qnd":
        return build_qnd_family(**params)
    if kind == "povm":
        elements = _object(params.get("elements"), "povm elements")
        params["elements"] = {str(y): matrix_from_json(f) for y, f in elements.items()}
        return povm_family(**params)
    raise ValueError(f"unknown model kind {kind!r}")


def initial_state(description: Mapping, model):
    """The preparation a description declares, or maximally mixed."""
    dim = model.dim
    enc = description.get("initial_state")
    if enc is None:
        return DensityMatrix(np.eye(dim) / dim)
    mat = matrix_from_json(enc)
    if mat.shape != (dim, dim):
        raise ValueError(
            f"initial state has shape {mat.shape}, model dimension is {dim}"
        )
    return DensityMatrix(mat)


def interventions_from_description(
    description: Mapping, model
) -> dict[int, np.ndarray]:
    """State-preparation events declared in a model description.

    Each entry {"step": t, "kind": "injection", ...} becomes a channel
    superoperator applied before step t during simulation; a step takes
    at most one.  Model files declare them for discrete models only,
    although ``sample_records`` applies them to either model type.
    """
    events = description.get("interventions", ())
    if not events:
        return {}
    if not isinstance(model, KrausFamily):
        raise ValueError("interventions are only supported for discrete models")
    out: dict[int, np.ndarray] = {}
    if not isinstance(events, (list, tuple)):
        raise TypeError(f"interventions must be an array, got {type(events).__name__}")
    for i, ev in enumerate(events):
        ev = _object(ev, f"intervention {i}")
        if "step" not in ev:
            raise ValueError(f"intervention {i} has no 'step'")
        step = _integer(ev["step"], "intervention step")
        if step in out:
            raise ValueError(f"two interventions at step {step}; a step takes one")
        kind = ev.get("kind", "injection")
        if kind != "injection":
            raise ValueError(f"unknown intervention kind {kind!r}")
        kwargs = {k: ev[k] for k in ("n_hot", "strength") if k in ev}
        out[step] = injection_channel(model.dim, **kwargs)
    return out


def _object(value, name: str) -> Mapping:
    """value, refused unless it is a JSON object; the error names it ``name``."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{name} must be an object, got {type(value).__name__}")
    return value


@contextlib.contextmanager
def _landing(*paths):
    """Temporary paths, one beside each of ``paths``, for a block to write;
    each is moved onto its path, in order, once the whole block has run,
    and all are removed if it raises, so that no path is ever left holding
    part of a file, nor one output without the others."""
    temps = [
        os.path.join(os.path.dirname(p), f".{os.path.basename(p)}.{os.getpid()}.tmp")
        for p in map(os.fspath, paths)
    ]
    try:
        yield temps
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# record archives
# ---------------------------------------------------------------------------


def write_records(
    path,
    records,
    *,
    model_description: Mapping | None = None,
    metadata: Mapping | None = None,
) -> dict:
    """Write records as JSON Lines with a leading metadata object.

    ``records`` is a RecordBatch or a sequence of record views.
    ``metadata`` adds keys to the header, but none that the header holds
    itself: format, version, record_type, n_records, model_hash, model.
    """
    batch = RecordBatch.from_records(records)
    if not len(batch):
        raise ValueError("refusing to write an empty record archive")
    header = {"format", "version", "record_type", "n_records", "model_hash", "model"}
    clash = sorted(header.intersection(metadata or ()))
    if clash:
        raise ValueError(f"metadata keys {clash} are written by the archive header")
    record_type = "discrete" if batch.dt is None else "continuous"
    meta = {
        "format": RECORDS_FORMAT,
        "version": FORMAT_VERSION,
        "record_type": record_type,
        "n_records": len(batch),
    }
    if model_description is not None:
        meta["model_hash"] = model_hash(model_description)
        meta["model"] = dict(model_description)
    if metadata:
        meta.update(metadata)
    labels = np.array(batch.labels, dtype=object)
    with _landing(path) as (tmp,), open(tmp, "w") as fh:
        fh.write(canonical_json(meta))
        fh.write("\n")
        for rid, row, n in zip(batch.record_ids.tolist(), batch.data, batch.lengths):
            if batch.dt is None:
                line = {"id": rid, "outcomes": labels[row[:n]].tolist()}
            else:
                line = {"id": rid, "dt": batch.dt, "increments": row[:n].tolist()}
            fh.write(canonical_json(line))
            fh.write("\n")
    return meta


def read_records(path) -> tuple[dict, RecordBatch]:
    """Read a record archive; returns (metadata, records as a RecordBatch).

    A malformed line raises ValueError naming its 1-based line number,
    and so does a signal record whose grid step or channel count differs
    from the first record's.  An id that an earlier record already holds
    is refused naming both lines, since every pass names a record by its
    id.  An archive without records is refused.
    """
    with open(path) as fh:
        # line by line: reading the whole text first, one large string freed
        # once split, raised peak RSS by about 3 MiB on a 4.5 MB archive
        lines = [(no, ln) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    meta = _parse_line(path, *lines[0], json.loads)
    if not isinstance(meta, dict) or meta.get("format") != RECORDS_FORMAT:
        raise ValueError(f"{path} is not a record archive")
    if meta.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported record format version {meta.get('version')!r}")
    record_type = meta.get("record_type")
    if record_type not in ("discrete", "continuous"):
        raise ValueError(f"unknown record type {record_type!r}")
    decode = _discrete_record if record_type == "discrete" else _continuous_record
    records = [_parse_line(path, no, ln, decode) for no, ln in lines[1:]]
    if not records:
        raise ValueError(f"{path} holds no records")
    declared = meta.get("n_records")
    if declared is not None and declared != len(records):
        raise ValueError(
            f"archive declares {declared} records but contains {len(records)}"
        )
    ids = np.array([r.id for r in records])
    order = np.argsort(ids, kind="stable")
    repeated = np.flatnonzero(np.diff(ids[order]) == 0)
    if repeated.size:
        j, i = order[repeated[0]], order[repeated[0] + 1]
        raise ValueError(
            f"{path}, lines {lines[j + 1][0]} and {lines[i + 1][0]}: both hold "
            f"record id {ids[j]}"
        )
    return meta, _pack(records, lambda i: f"{path}, line {lines[i + 1][0]}")


def _discrete_record(line: str) -> DiscreteRecord:
    obj = json.loads(line)
    return DiscreteRecord(obj["id"], tuple(_field(obj, "outcomes", list, "an array")))


def _continuous_record(line: str) -> ContinuousRecord:
    obj = json.loads(line)
    return ContinuousRecord(
        obj["id"],
        _field(obj, "dt", (int, float), "a number"),
        _signal(obj["increments"], "true" in line or "false" in line),
    )


def _signal(rows, literals: bool) -> np.ndarray:
    """Decoded JSON ``increments`` as an array, refusing strings and bools
    rather than converting them.  NumPy shows a string in the dtype but
    folds a bool into a float array, so the values are walked when the
    dtype is not float or the line holds a JSON literal (``literals``);
    walking every line would add about a quarter to ``read_records``."""
    sig = np.asarray(rows)
    if sig.dtype.kind != "f" or literals:
        for row in rows if isinstance(rows, list) else ():
            for v in row if isinstance(row, list) else (row,):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise TypeError(f"increments must hold numbers, got {json.dumps(v)}")
    return np.asarray(sig, float)


def _field(obj: dict, key: str, types, kind: str):
    """obj[key], refused unless it decoded from JSON as ``kind``."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{key} must be {kind}, got {json.dumps(value)}")
    return value


def _parse_line(path, no: int, line: str, decode):
    try:
        return decode(line)
    except json.JSONDecodeError as exc:
        problem = f"malformed JSON ({exc.msg} at column {exc.colno})"
    except KeyError as exc:
        problem = f"missing key {exc}"
    except (TypeError, ValueError) as exc:
        problem = str(exc)
    raise ValueError(f"{path}, line {no}: {problem}")


def validate_records(
    model_description: Mapping, model, metadata: Mapping, records
) -> list[str]:
    """Semantic cross-checks between an archive and a model.

    ``records`` is a RecordBatch or a sequence of record views.  Lists
    every problem that the passes' record checks find, then non-finite
    signal increments (which a pass reports as a zero probability).  An
    empty list means the archive is consistent with the model.
    """
    problems: list[str] = []
    declared = metadata.get("model_hash")
    actual = model_hash(model_description)
    if declared is not None and declared != actual:
        problems.append(
            f"archive was produced from a different model (hash {declared[:12]}.. "
            f"!= {actual[:12]}..)"
        )
    record_type = getattr(model, "_record_type", None)
    if record_type is None:
        return problems + [f"unsupported model type {type(model).__name__}"]
    if metadata.get("record_type") != record_type:
        kind = {"discrete": "discrete", "continuous": "signal"}[record_type]
        return problems + [f"{record_type} model but archive is not of {kind} records"]
    batch = RecordBatch.from_records(records)
    found = model._read(batch)[1]
    # outcome codes are integers, so only signal increments can fail this
    finite = np.isfinite(batch.data).all(axis=tuple(range(1, batch.data.ndim)))
    found += [
        ValueError(f"record {rid} contains non-finite increments")
        for rid in batch.record_ids[~finite]
    ]
    return problems + [str(problem) for problem in found]


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


RESULTS_SCHEMA = "# trajtomo-results v1"


def write_results_csv(path, rows: Sequence[Mapping]) -> None:
    """Write result rows under the fixed column schema.

    The first header line names the schema and its version so readers
    can reject tables written under a different layout; the second is
    the usual column header.
    """
    with _landing(path) as (tmp,), open(tmp, "w", newline="") as fh:
        fh.write(RESULTS_SCHEMA + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            missing = [c for c in RESULT_COLUMNS if c not in row]
            if missing:
                raise ValueError(f"result row is missing columns {missing}")
            writer.writerow([_cell(row[c]) for c in RESULT_COLUMNS])


def write_json(path, payload: Mapping) -> None:
    with _landing(path) as (tmp,), open(tmp, "w") as fh:
        fh.write(canonical_json(payload))
        fh.write("\n")

"""CSV/JSON interchange: datasets, models, configs and reports.

Floats are written via repr so round-trips are exact; JSON output uses
sorted keys and fixed separators so identical inputs give identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass

import numpy as np

from .core import Dataset, KernelSpec, MetricModel
from .harness import PSEUDO_EPS_SCALE, ExperimentConfig

SCHEMA_VERSION = 1


def dataset_to_csv(ds: Dataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(ds.d)] + ["label"])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.X[i]] + [str(ds.y[i])])


def dataset_from_csv(path: str, R: float | None = None) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[-1] != "label":
            raise ValueError("dataset CSV must end with a 'label' column")
        d = len(header) - 1
        X, y = [], []
        for row in reader:
            if len(row) != d + 1:
                raise ValueError(f"row has {len(row)} fields, expected {d + 1}")
            X.append([float(v) for v in row[:d]])
            y.append(row[d])
    X = np.asarray(X, dtype=float)
    if R is None:
        R = float(np.linalg.norm(X, axis=1).max())
    return Dataset(X, y, R)


def dataset_hash(ds: Dataset) -> str:
    h = hashlib.sha256()
    for i in range(ds.n):
        h.update(",".join(repr(float(v)) for v in ds.X[i]).encode())
        h.update(str(ds.y[i]).encode())
    return h.hexdigest()


def write_json(obj: dict, path: str) -> None:
    """Write dumps(obj); a NaN or infinity raises ValueError before the
    file is opened, so no partial file is left."""
    text = dumps(obj)
    with open(path, "w") as fh:
        fh.write(text)


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def model_to_json_dict(m: MetricModel, c: float | None = None) -> dict:
    out = {
        "kind": m.kind,
        "d": m.d,
        "regularizer": m.regularizer,
        "c": c,
        "matrix": m.M.ravel().tolist(),
        "size": m.M.shape[0],
    }
    if m.kind == "kernelized":
        out["kernel"] = {"kind": m.kernel.kind, "sigma": m.kernel.sigma}
        out["anchors"] = dataset_hash(m.anchors)
    return out


def model_from_json_dict(obj: dict, anchors: Dataset | None = None) -> MetricModel:
    """The stored model; info["c"] is the training c (None when unknown)."""
    size = obj["size"]
    info = {"c": obj.get("c")}
    mat = np.asarray(obj["matrix"], dtype=float).reshape(size, size)
    ks = None
    if obj["kind"] == "kernelized":
        if anchors is None:
            raise ValueError("kernelized model needs the anchor dataset")
        if obj.get("anchors") and dataset_hash(anchors) != obj["anchors"]:
            raise ValueError("anchor dataset does not match the stored hash")
        ks = KernelSpec(obj["kernel"]["kind"], obj["kernel"].get("sigma", 1.0))
    else:
        anchors = None
    return MetricModel(
        obj["kind"], mat, kernel=ks, anchors=anchors, regularizer=obj["regularizer"], info=info
    )


def save_model(m: MetricModel, path: str, c: float | None = None) -> None:
    write_json(model_to_json_dict(m, c), path)


def load_model(path: str, anchors: Dataset | None = None) -> MetricModel:
    with open(path) as fh:
        return model_from_json_dict(json.load(fh), anchors=anchors)


def config_to_json_dict(cfg: ExperimentConfig) -> dict:
    out = asdict(cfg)
    out["schema_version"] = SCHEMA_VERSION
    out["synthetic"]["means"] = [list(mv) for mv in cfg.synthetic.means]
    return out


def _has_json_type(value, tp) -> bool:
    # an int field refuses a bool or a float, a float field takes an int, and
    # the one tuple field (the class means) is an array of number arrays
    if tp is tuple:
        return isinstance(value, list) and all(
            isinstance(row, list) and all(_has_json_type(v, float) for v in row) for row in value
        )
    return isinstance(value, (int, float) if tp is float else tp) and not isinstance(value, bool)


def _read(cls, obj, where: str = ""):
    # one config object into the dataclass cls; an unknown or missing key and
    # a value of the wrong JSON type are refused by name
    if not isinstance(obj, dict):
        raise ValueError(f"config {where.rstrip('.') or 'file'} must be an object")
    types = typing.get_type_hints(cls)
    required = {f.name for f in fields(cls) if f.default is MISSING}
    for keys, what in ((set(obj) - set(types), "unknown"), (required - set(obj), "missing")):
        if keys:
            raise ValueError(f"{what} config key " + ", ".join(where + k for k in sorted(keys)))
    values = {}
    for key, value in obj.items():
        tp = types[key]
        if is_dataclass(tp):
            value = _read(tp, value, f"{where}{key}.")
        elif not _has_json_type(value, tp):
            raise ValueError(f"config key {where}{key} must be {tp.__name__}, not {value!r}")
        values[key] = tuple(map(tuple, value)) if tp is tuple else value
    return cls(**values)


def config_from_json_dict(obj: dict) -> ExperimentConfig:
    # older schema-1 files may hold solver.seed, which no solver read,
    # solver.tol, 0 in every saved config (no early stop), and pseudo_eps_scale,
    # which is now the constant PSEUDO_EPS_SCALE
    if not isinstance(obj, dict):
        raise ValueError("config file must be an object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    top = {k: v for k, v in obj.items() if k != "schema_version"}
    scale = top.pop("pseudo_eps_scale", PSEUDO_EPS_SCALE)
    if scale != PSEUDO_EPS_SCALE:
        raise ValueError(f"pseudo_eps_scale must be {PSEUDO_EPS_SCALE}, not {scale!r}")
    if isinstance(top.get("solver"), dict):
        top["solver"] = {k: v for k, v in top["solver"].items() if k not in ("seed", "tol")}
        if obj["solver"].get("tol", 0.0) != 0.0:
            raise ValueError(f"solver.tol must be 0 (no early stop), not {obj['solver']['tol']!r}")
    return _read(ExperimentConfig, top)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_json_dict(json.load(fh))


def save_config(cfg: ExperimentConfig, path: str) -> None:
    write_json(config_to_json_dict(cfg), path)


def curve_to_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "gap", "bound", "sqrt_term"])
        for row in rows:
            writer.writerow(
                [
                    row["n"],
                    repr(float(row["gap"])),
                    repr(float(row["bound"])),
                    repr(float(row["sqrt_term"])),
                ]
            )

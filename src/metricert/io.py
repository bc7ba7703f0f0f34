"""CSV/JSON interchange: datasets, models, configs and reports.

Floats are written via repr so round-trips are exact; JSON output uses
sorted keys and fixed separators so identical inputs give identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass

import numpy as np

from .core import Dataset, KernelSpec, MetricModel
from .harness import ExperimentConfig

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
        rows = list(reader)
    for row in rows:
        if len(row) != d + 1:
            raise ValueError(f"row has {len(row)} fields, expected {d + 1}")
    # one flat pass of float() over every coordinate; a file without rows
    # leaves X empty and 1-D, which the radius or Dataset refuses
    X = np.array([float(v) for row in rows for v in row[:d]])
    if rows:
        X = X.reshape(len(rows), d)
    y = [row[d] for row in rows]
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


def model_to_json_dict(m: MetricModel) -> dict:
    """The model and its training c (info["c"]; null when unknown)."""
    out = {
        "kind": m.kind,
        "d": m.d,
        "regularizer": m.regularizer,
        "c": m.info.get("c"),
        "matrix": m.M.ravel().tolist(),
        "size": m.M.shape[0],
    }
    if m.kind == "kernelized":
        out["kernel"] = {"kind": m.kernel.kind, "sigma": m.kernel.sigma}
        out["anchors"] = dataset_hash(m.anchors)
    return out


def model_from_json_dict(obj: dict, anchors: Dataset | None = None) -> MetricModel:
    """The stored model; info["c"] is the training c, which enters the
    certificate: null (unknown) or a positive finite number."""
    size = obj["size"]
    c = obj.get("c")
    if c is not None and not (_has_json_type(c, float) and 0.0 < c < math.inf):
        raise ValueError(f"model c must be null or positive and finite, not {c!r}")
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
        obj["kind"], mat, kernel=ks, anchors=anchors, regularizer=obj["regularizer"], info={"c": c}
    )


def save_model(m: MetricModel, path: str) -> None:
    write_json(model_to_json_dict(m), path)


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
    if not isinstance(obj, dict):
        raise ValueError("config file must be an object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    # older schema-1 files may hold retired keys, read and dropped here with
    # the one value each may hold (None: any): solver.seed, which no solver
    # read; solver.tol (the stop rule is solver.GAP_TOL), solver.step0 (the
    # step is Polyak's) and cover.norm (the cover's one metric) at the value
    # of every saved config; pseudo_eps_scale, the retired pseudo-robust
    # epsilon fraction
    top = {k: dict(v) if isinstance(v, dict) else v for k, v in obj.items()}
    del top["schema_version"]
    for name, only in (("pseudo_eps_scale", 0.5), ("solver.seed", None), ("solver.tol", 0.0),
                       ("solver.step0", 1.0), ("cover.norm", "l2")):
        section, _, key = name.rpartition(".")
        holder = top.get(section) if section else top
        if isinstance(holder, dict) and key in holder:
            value = holder.pop(key)
            if only is not None and (value != only or isinstance(value, bool)):
                raise ValueError(f"{name} must be {only!r}, not {value!r}")
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

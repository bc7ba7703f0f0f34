"""CSV/JSON interchange: datasets, models, configs and reports.

Floats are written via repr so round-trips are exact; JSON output uses
sorted keys and fixed separators so identical inputs give identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict

import numpy as np

from .core import Dataset, KernelSpec, MetricModel
from .cover import CoverConfig
from .harness import ExperimentConfig, SyntheticSpec
from .solver import SolverConfig

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
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def model_to_json_dict(m: MetricModel, c: float | None = None) -> dict:
    out = {
        "kind": m.kind,
        "d": m.d,
        "regularizer": m.regularizer,
        "c": c,
    }
    if m.kind == "kernelized":
        out["matrix"] = [float(v) for v in m.A.ravel()]
        out["size"] = m.A.shape[0]
        out["kernel"] = {"kind": m.kernel.kind, "sigma": m.kernel.sigma}
        out["anchors"] = dataset_hash(m.anchors)
    else:
        out["matrix"] = [float(v) for v in m.M.ravel()]
        out["size"] = m.M.shape[0]
    return out


def model_from_json_dict(obj: dict, anchors: Dataset | None = None) -> MetricModel:
    """The stored model; info["c"] is the training c (None when unknown)."""
    size = obj["size"]
    info = {"c": obj.get("c")}
    mat = np.asarray(obj["matrix"], dtype=float).reshape(size, size)
    if obj["kind"] == "kernelized":
        if anchors is None:
            raise ValueError("kernelized model needs the anchor dataset")
        if obj.get("anchors") and dataset_hash(anchors) != obj["anchors"]:
            raise ValueError("anchor dataset does not match the stored hash")
        ks = KernelSpec(obj["kernel"]["kind"], obj["kernel"].get("sigma", 1.0))
        return MetricModel(
            kind="kernelized", A=mat, kernel=ks, anchors=anchors,
            regularizer=obj["regularizer"], info=info,
        )
    return MetricModel(kind=obj["kind"], M=mat, regularizer=obj["regularizer"], info=info)


def save_model(m: MetricModel, path: str, c: float | None = None) -> None:
    write_json(model_to_json_dict(m, c), path)


def load_model(path: str, anchors: Dataset | None = None) -> MetricModel:
    with open(path) as fh:
        return model_from_json_dict(json.load(fh), anchors=anchors)


def config_to_json_dict(cfg: ExperimentConfig) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "synthetic": asdict(cfg.synthetic),
        "solver": asdict(cfg.solver),
        "cover": asdict(cfg.cover),
        "family": cfg.family,
        "delta": cfg.delta,
        "probe_size": cfg.probe_size,
        "mc_size": cfg.mc_size,
        "repetitions": cfg.repetitions,
        "pseudo_eps_scale": cfg.pseudo_eps_scale,
    }
    out["synthetic"]["means"] = [list(mv) for mv in cfg.synthetic.means]
    return out


def config_from_json_dict(obj: dict) -> ExperimentConfig:
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    syn = dict(obj["synthetic"])
    syn["means"] = tuple(tuple(mv) for mv in syn.get("means", ()))
    return ExperimentConfig(
        synthetic=SyntheticSpec(**syn),
        solver=SolverConfig(**obj["solver"]),
        cover=CoverConfig(**obj["cover"]),
        family=obj["family"],
        delta=obj["delta"],
        probe_size=obj["probe_size"],
        mc_size=obj["mc_size"],
        repetitions=obj["repetitions"],
        pseudo_eps_scale=obj.get("pseudo_eps_scale", 0.5),
    )


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

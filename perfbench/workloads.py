"""The three workloads: inputs, CLI call sequences and output checks.

Each workload is a closed loop with one client: a pass issues CLI calls
one after another through ``metricert.cli.main(argv)`` in this process, and
each call waits for the one before it, as a user's train -> audit -> knn
session does.  Inputs are written by this file from a seeded numpy
generator; only ``validate`` lets the program draw its own samples, because
that sampler is what it measures.  The checks recompute what they test from
the saved files with numpy alone, so they do not trust the program.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np

C = 0.1           # regularisation weight of every trained model
ITERS = 300       # solver iterations of every train call
SIGMA = 1.0       # rbf bandwidth
PAIR_G0 = 2.0     # hinge loss of the zero matrix over pairs
TRIPLET_G0 = 1.0  # hinge loss of the zero matrix over triplets
CAPACITY_SLACK = 1e-6


@dataclass
class Call:
    """One CLI operation of a pass."""

    label: str         # unique within a workload, e.g. "train fro"
    stage: str         # timing group, e.g. "train_pair", "audit", "curve"
    argv: list
    report: str = ""   # audit report whose bytes must repeat on every pass


@dataclass
class CallResult:
    call: Call
    code: int
    seconds: float
    stdout: str
    stderr: str


# ---------------------------------------------------------------------------
# inputs


def mixture(rng: np.random.Generator, n: int, d: int) -> tuple[np.ndarray, list]:
    """Two balanced Gaussian classes at +/-0.5 e_1 (scale 0.3), resampled
    until every point lies inside the unit ball."""
    labels = rng.permutation(n) % 2
    means = np.zeros((2, d))
    means[0, 0], means[1, 0] = 0.5, -0.5
    X = means[labels] + 0.3 * rng.standard_normal((n, d))
    outside = np.linalg.norm(X, axis=1) > 1.0
    while outside.any():
        X[outside] = means[labels[outside]] + 0.3 * rng.standard_normal((int(outside.sum()), d))
        outside = np.linalg.norm(X, axis=1) > 1.0
    return X, [f"c{v}" for v in labels]


def write_csv(path: str, X: np.ndarray, y: list) -> None:
    """The dataset CSV the CLI reads: header f0..f{d-1},label; repr floats."""
    lines = [",".join([f"f{i}" for i in range(X.shape[1])] + ["label"])]
    lines += [",".join([repr(v) for v in row] + [lab]) for row, lab in zip(X.tolist(), y)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[np.ndarray, list]:
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    return np.array([[float(v) for v in r[:-1]] for r in rows]), [r[-1] for r in rows]


# ---------------------------------------------------------------------------
# numpy recomputation of what the program claims


def _sq_dists(F: np.ndarray, M: np.ndarray) -> np.ndarray:
    G = F @ M @ F.T
    q = np.diag(G)
    return q[:, None] + q[None, :] - G - G.T


def _reg_norm(M: np.ndarray, reg: str) -> float:
    if reg == "l1":
        return float(np.abs(M).sum())
    if reg == "l21":
        return float(np.linalg.norm(M, axis=0).sum())
    return float(np.linalg.norm(M))


def model_objective(model: dict, family: str, X: np.ndarray, y: list) -> tuple[float, float]:
    """(training objective, capacity use c*||M||_reg/g0) of a saved model,
    recomputed from the model JSON and its training data.

    For kernel-rbf the norm is the feature norm ||K^1/2 A K^1/2||_F over the
    training Gram matrix K.
    """
    size = model["size"]
    M = np.asarray(model["matrix"], dtype=float).reshape(size, size)
    if model["kind"] == "kernelized":
        sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        K = np.exp(-sq / (2.0 * SIGMA**2))
        w, V = np.linalg.eigh(K)
        S = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
        norm = float(np.linalg.norm(S @ M @ S))
        F = _sq_dists(K, M)
    elif model["kind"] == "bilinear":
        norm = _reg_norm(M, model["regularizer"])
        F = X @ M @ X.T
    else:
        norm = _reg_norm(M, model["regularizer"])
        F = _sq_dists(X, M)
    lab = np.array(y)
    same = lab[:, None] == lab[None, :]
    if family.startswith("triplet"):
        # mean hinge of 1 - F_ik + F_ij over y_i == y_j != y_k
        total, count = 0.0, 0
        for i in range(len(y)):
            fs, fd = F[i, same[i]], F[i, ~same[i]]
            total += np.maximum(0.0, 1.0 - fd[None, :] + fs[:, None]).sum()
            count += fs.size * fd.size
        loss, g0 = total / count, TRIPLET_G0
    else:
        Y = np.where(same, 1.0, -1.0)
        loss, g0 = float(np.maximum(0.0, 1.0 - Y * (1.0 - F)).mean()), PAIR_G0
    return C * norm + loss, C * norm / g0


def printed(stdout: str, key: str) -> float | None:
    """A ``key=value`` number from a CLI call's standard output."""
    m = re.search(rf"{key}=(\S+)", stdout)
    return float(m.group(1)) if m else None


def model_ok(result: CallResult, family: str, model_path: str, data_path: str,
             details: dict) -> bool:
    """The saved model meets the capacity condition c*||M||_reg <= g0.

    Its recomputed objective and the one train printed are recorded, not
    compared: for kernel-rbf the saved A passes through a pseudo-inverse and
    a PSD projection after the objective is printed.
    """
    try:
        with open(model_path) as fh:
            model = json.load(fh)
        obj, capacity = model_objective(model, family, *read_csv(data_path))
    except (OSError, KeyError, TypeError, ValueError):  # missing or malformed model
        return False
    details.setdefault("objective", {})[family] = obj
    details.setdefault("objective_printed", {})[family] = printed(result.stdout, "objective")
    details.setdefault("capacity_use", {})[family] = capacity
    return capacity <= 1.0 + CAPACITY_SLACK


def report_ok(path: str) -> bool:
    """The empirical robustness constant does not exceed the certified one."""
    try:
        with open(path) as fh:
            rep = json.load(fh)
        return rep["epsilon_empirical"] <= rep["epsilon_theoretical"]
    except (OSError, KeyError, TypeError, ValueError):  # missing or malformed report
        return False


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A fixed sequence of CLI calls per pass, plus optional set-up calls."""

    name = ""
    setup_calls: list = []
    calls: list = []

    def __init__(self, workdir: str):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_inputs(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def check_setup(self, results: list, details: dict) -> set:
        """Labels of set-up calls whose output fails a check."""
        return set()

    def check_pass(self, results: list, details: dict) -> set:
        """Labels of pass calls whose output fails a check."""
        raise NotImplementedError


FIT_FAMILIES = (
    # family, points in the training and in the probe set
    ("fro", 300), ("l1", 300), ("l21", 300), ("bilinear", 300),
    ("kernel-rbf", 200), ("triplet-fro", 80),
)


def _train_stage(family: str) -> str:
    if family == "kernel-rbf":
        return "train_kernel"
    return "train_triplet" if family.startswith("triplet") else "train_pair"


class Fit(Workload):
    name = "fit"

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.calls = []
        for family, n in FIT_FAMILIES:
            train, probe = self.path(f"train_{n}.csv"), self.path(f"probe_{n}.csv")
            model, report = self.path(f"model_{family}.json"), self.path(f"report_{family}.json")
            fam = ["--family", family, "--c", str(C), "--sigma", str(SIGMA), "--radius", "1.0"]
            self.calls += [
                Call(f"train {family}", _train_stage(family),
                     ["train", "--data", train, "--out", model, "--iters", str(ITERS)] + fam),
                Call(f"audit {family}", "audit",
                     ["audit", "--model", model, "--data", train, "--probe", probe,
                      "--out", report, "--gamma", "0.5"] + fam, report=report),
                Call(f"knn {family}", "knn",
                     ["knn", "--model", model, "--train", train, "--test", probe,
                      "--k", "3", "--radius", "1.0"]),
            ]

    def write_inputs(self, rng):
        for n in (300, 200, 80):
            write_csv(self.path(f"train_{n}.csv"), *mixture(rng, n, 2))
            write_csv(self.path(f"probe_{n}.csv"), *mixture(rng, n, 2))

    def check_pass(self, results, details):
        by_label = {r.call.label: r for r in results}
        failed = set()
        for family, n in FIT_FAMILIES:
            train = by_label[f"train {family}"]
            if train.code == 0 and not model_ok(
                train, family, self.path(f"model_{family}.json"),
                self.path(f"train_{n}.csv"), details,
            ):
                failed.add(train.call.label)
            audit = by_label[f"audit {family}"]
            if audit.code == 0 and not report_ok(audit.call.report):
                failed.add(audit.call.label)
            details.setdefault("knn_accuracy", {})[family] = printed(
                by_label[f"knn {family}"].stdout, "accuracy")
        return failed


class AuditLarge(Workload):
    name = "audit-large"
    N_MODEL, N = 300, 4000

    def __init__(self, workdir: str):
        super().__init__(workdir)
        model, train, probe = self.path("model.json"), self.path("train.csv"), self.path("probe.csv")
        fro = ["--family", "fro", "--c", str(C), "--radius", "1.0"]
        self.setup_calls = [
            Call("train fro", "setup_train",
                 ["train", "--data", self.path("small.csv"), "--out", model,
                  "--iters", str(ITERS)] + fro),
        ]
        self.calls = [
            Call("audit fro", "audit",
                 ["audit", "--model", model, "--data", train, "--probe", probe,
                  "--out", self.path("report.json"), "--gamma", "0.3"] + fro,
                 report=self.path("report.json")),
            Call("knn fro", "knn",
                 ["knn", "--model", model, "--train", train, "--test", probe,
                  "--k", "3", "--radius", "1.0"]),
        ]

    def write_inputs(self, rng):
        write_csv(self.path("small.csv"), *mixture(rng, self.N_MODEL, 3))
        write_csv(self.path("train.csv"), *mixture(rng, self.N, 3))
        write_csv(self.path("probe.csv"), *mixture(rng, self.N, 3))

    def check_setup(self, results, details):
        train = results[0]
        if train.code == 0 and not model_ok(
            train, "fro", self.path("model.json"), self.path("small.csv"), details
        ):
            return {train.call.label}
        return set()

    def check_pass(self, results, details):
        audit, knn = results
        details.setdefault("knn_accuracy", {})["fro"] = printed(knn.stdout, "accuracy")
        if audit.code == 0 and not report_ok(audit.call.report):
            return {audit.call.label}
        return set()


class Validate(Workload):
    name = "validate"
    LADDER = (50, 100, 200)
    REPETITIONS = 2
    BHC_K = 64

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.calls = [
            Call("curve fro", "curve",
                 ["curve", "--config", self.path("curve_config.json"),
                  "--n-ladder", ",".join(str(n) for n in self.LADDER),
                  "--out", self.path("curve.csv")]),
            Call("bhc", "bhc",
                 ["bhc", "--K", str(self.BHC_K),
                  "--mu", ",".join([repr(1.0 / self.BHC_K)] * self.BHC_K),
                  "--n", "200", "--lam", "0.5", "--trials", "100000", "--seed", "0"]),
        ]

    @property
    def reps_per_pass(self) -> int:
        return self.REPETITIONS * len(self.LADDER)

    def write_inputs(self, rng):
        seed = int(rng.integers(2**31))
        self.calls[1].argv[-1] = str(seed)  # the value of bhc's --seed
        # only the fields the config reader requires or that differ from its defaults
        config = {
            "schema_version": 1,
            "synthetic": {"d": 2, "n": self.LADDER[0], "seed": seed},
            "solver": {"c": C, "max_iters": 150},
            "cover": {"gamma": 0.5},
            "family": "fro",
            "delta": 0.05,
            "probe_size": 100,
            "mc_size": 20_000,
            "repetitions": self.REPETITIONS,
        }
        with open(self.path("curve_config.json"), "w") as fh:
            json.dump(config, fh, sort_keys=True)

    def check_pass(self, results, details):
        curve, bhc = results
        failed = set()
        if curve.code == 0:
            try:
                with open(self.path("curve.csv")) as fh:
                    rows = [[float(v) for v in line.split(",")[:3]] for line in fh.readlines()[1:]]
            except (OSError, ValueError):  # missing or malformed curve
                rows = []
            details["curve"] = rows
            if len(rows) != len(self.LADDER) or any(len(r) < 3 or r[1] > r[2] for r in rows):
                failed.add(curve.call.label)
        details["bhc"] = bhc.stdout.strip()
        if bhc.code == 0 and "violated=False" not in bhc.stdout:
            failed.add(bhc.call.label)
        return failed


WORKLOADS = {w.name: w for w in (Fit, AuditLarge, Validate)}

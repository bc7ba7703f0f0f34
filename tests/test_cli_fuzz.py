"""Seeded edge-value fuzz of the command line.

Every numeric flag of gen, train, audit (fro and kernel-rbf, with and
without --c and --sigma), bound, bhc and knn is set, one at a time, to each
edge value, and a seeded numpy Generator adds cases that set several flags
of one command at once.  Each call must exit 0 or 1 without a traceback and
print only finite numbers; on exit 0 its output file must be strict JSON
(or a finite dataset CSV), and on exit 1 it must write none.  Integer flags
only parse at 0, -1, 1 and 3, so no case allocates a large array.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from metricert.cli import main
from metricert.core import Dataset
from metricert.io import dataset_from_csv, dataset_to_csv

EDGE = ["0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "0.1", "1", "3", "1e-9"]
MIXED_CASES = 40


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _base_commands(tmp_path, rng):
    """Per command: a valid argv (flag -> value), its output file, and the
    numeric flags to fuzz."""
    X = rng.uniform(-0.6, 0.6, size=(12, 2))
    data = tmp_path / "data.csv"
    dataset_to_csv(Dataset(X, [f"c{int(v > 0)}" for v in X[:, 0]], 1.0), data)
    models = {}
    for family in ("fro", "kernel-rbf"):
        models[family] = tmp_path / f"{family}.json"
        assert main(["train", "--data", str(data), "--out", str(models[family]),
                     "--family", family, "--c", "0.5", "--sigma", "0.5", "--iters", "5"]) == 0
    out_json, out_csv = str(tmp_path / "out.json"), str(tmp_path / "out.csv")
    commands = {
        "gen": ({"--out": out_csv, "--n": "8", "--d": "2", "--classes": "2",
                 "--cov-scale": "0.3", "--radius": "1", "--seed": "0"}, out_csv,
                ["--n", "--d", "--classes", "--cov-scale", "--radius", "--seed"]),
        "bound": ({"--mode": "pseudo", "--epsilon": "0.1", "--B": "3", "--K": "4", "--n": "100",
                   "--delta": "0.05", "--p-hat": "3"}, None,
                  ["--epsilon", "--B", "--K", "--n", "--delta", "--p-hat"]),
        "bhc": ({"--K": "2", "--mu": "0.5,0.5", "--n": "20", "--lam": "0.3", "--trials": "50",
                 "--seed": "0"}, None, ["--K", "--mu", "--n", "--lam", "--trials", "--seed"]),
    }
    for family, model in models.items():
        commands[f"train {family}"] = (
            {"--data": str(data), "--out": out_json, "--family": family, "--c": "0.5",
             "--iters": "3", "--sigma": "0.5", "--radius": "1"}, out_json,
            ["--c", "--iters", "--sigma", "--radius"])
        audit = {"--model": str(model), "--data": str(data), "--out": out_json,
                 "--family": family, "--gamma": "0.5", "--delta": "0.05", "--radius": "1"}
        commands[f"audit {family}"] = (audit, out_json, ["--gamma", "--delta", "--radius"])
        commands[f"audit {family} --c --sigma"] = (
            {**audit, "--c": "0.5", "--sigma": "0.5"}, out_json,
            ["--c", "--sigma", "--gamma", "--delta", "--radius"])
        commands[f"knn {family}"] = (
            {"--model": str(model), "--train": str(data), "--test": str(data), "--k": "3",
             "--radius": "1"}, None, ["--k", "--radius"])
    return commands


def _cases(commands, rng):
    for name, (args, out, numeric) in commands.items():
        for flag in numeric:
            for value in EDGE:
                yield name, {**args, flag: value if flag != "--mu" else f"{value},0.5"}, out
    names = sorted(commands)
    for _ in range(MIXED_CASES):
        name = names[rng.integers(len(names))]
        args, out, numeric = commands[name]
        args = dict(args)
        for flag in rng.choice(numeric, size=min(3, len(numeric)), replace=False):
            args[str(flag)] = EDGE[rng.integers(len(EDGE))]
        yield name, args, out


def _printed_numbers(text):
    # the value of each key=value token, and each bare token, that parses
    # as a float; paths and words do not
    for token in text.split():
        try:
            yield float(token.split("=", 1)[-1])
        except ValueError:
            continue


@pytest.mark.filterwarnings("error")
def test_cli_edge_values(tmp_path):
    rng = np.random.default_rng(20260517)
    commands = _base_commands(tmp_path, rng)
    outputs = {Path(c[1]) for c in commands.values() if c[1] is not None}
    checked = 0
    for name, args, out in _cases(commands, rng):
        argv = [name.split()[0]] + [tok for item in args.items() for tok in item]
        for path in outputs:
            path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        stdout, stderr = stdout.getvalue(), stderr.getvalue()
        case = f"{argv}: exit {code}\n{stderr}"
        assert code in (0, 1), case
        assert "Traceback" not in stdout + stderr, case
        assert all(math.isfinite(v) for v in _printed_numbers(stdout)), (case, stdout)
        if code == 1:
            assert stderr.startswith(("error: ", "usage: ")), case
            assert out is None or not Path(out).exists(), case
        elif out is not None and out.endswith(".json"):
            with open(out) as fh:
                json.load(fh, parse_constant=_refuse_constant)
        elif out is not None:
            assert np.all(np.isfinite(dataset_from_csv(out).X)), case
        checked += 1
    assert checked == 11 * sum(len(c[2]) for c in commands.values()) + MIXED_CASES

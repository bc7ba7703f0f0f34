"""Checks that tie the package to the files around it: the benchmark's
traced function names, the README's library and command-line examples and
the package's own imports."""

import argparse
import ast
import importlib
import re
import shlex
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# public names that no code in the package calls: entry points kept for
# users and tests, each with the reason it stays
ENTRY_POINTS = (
    ("metric_eval", "f of one pair in unexpanded form, the tests' per-pair oracle"),
    ("objective", "the training objective of any model, to check a saved one"),
    ("loss_subgradient", "the solver's pair subgradient at a given model; criterion 06 checks it"),
    ("save_config", "writes the config file that curve --config reads"),
)


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{name} is not assigned at module level")


def bench_traced_names() -> set:
    """The module.function names whose metrics the benchmark reports: the
    function lists of perfbench/run.py and the return counters of
    perfbench/tracer.py, read from the source without importing either."""
    run = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    names = set(ast.literal_eval(_assigned(run, "FN_SELF")))
    names |= set(ast.literal_eval(_assigned(run, "FN_CALLS")))
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for key in _assigned(tracer, "RETURN_COUNTERS").keys:
        names.add(".".join(ast.literal_eval(key)))
    return names


def test_bench_traced_names_are_defined():
    # the tracer wraps public module-level functions only; a name the
    # program no longer defines reads as absent, and a traced run that
    # lacks a metric gives no result
    names = bench_traced_names()
    assert len(names) == 18
    for name in sorted(names):
        module, fn = name.split(".")
        mod = importlib.import_module(f"metricert.{module}")
        obj = vars(mod).get(fn)
        assert isinstance(obj, types.FunctionType), f"{name} is not a function"
        assert obj.__module__ == mod.__name__, f"{name} is defined elsewhere"


def readme_quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_every_public_name_is_used():
    # a public module-level function or class must be referenced by the
    # package's own code (the re-exports of __init__ do not count), be
    # traced by the benchmark, appear in the README's Quick start, or be
    # one of ENTRY_POINTS
    defined, referenced = {}, set()
    for path in sorted((ROOT / "src" / "metricert").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    quick_start = ast.walk(ast.parse(readme_quick_start()))
    allowed = referenced | {name for name, _ in ENTRY_POINTS}
    allowed |= {name.split(".")[1] for name in bench_traced_names()}
    allowed |= {alias.name for node in quick_start if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    unused = sorted(f"{module}.{name}" for name, module in defined.items() if name not in allowed)
    assert not unused, f"public names nothing uses: {unused}"


def test_readme_quick_start_runs(capsys):
    exec(compile(readme_quick_start(), "README.md", "exec"), {})
    eps_emp, eps_theo, bound = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 <= eps_emp <= eps_theo <= bound


def test_readme_command_lines_parse():
    from metricert.cli import build_parser

    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "metricert"
        parser.parse_args(argv[1:])


# every settable value of the command line, by subcommand: a flag added or
# retired shows up as an edit here
CLI_FLAGS = {
    "gen": ["--out", "--n", "--d", "--classes", "--cov-scale", "--radius", "--seed"],
    "train": ["--data", "--out", "--family", "--c", "--iters", "--sigma", "--radius"],
    "audit": ["--model", "--data", "--probe", "--out", "--family", "--c", "--gamma", "--delta",
              "--sigma", "--radius"],
    "bound": ["--mode", "--epsilon", "--B", "--K", "--n", "--delta", "--p-hat"],
    "bhc": ["--K", "--mu", "--n", "--lam", "--trials", "--seed"],
    "curve": ["--config", "--n-ladder", "--out"],
    "knn": ["--model", "--train", "--test", "--k", "--radius"],
}


def test_cli_flags():
    from metricert.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: [s for action in parser._actions for s in action.option_strings
               if s not in ("-h", "--help")]
        for name, parser in sub.choices.items()
    }
    assert flags == CLI_FLAGS


def test_package_imports_only_stdlib_and_numpy():
    # the package stays numpy-only: every import of every module names the
    # standard library, numpy or the package itself
    modules = sorted((ROOT / "src" / "metricert").glob("*.py"))
    assert len(modules) >= 8
    allowed = set(sys.stdlib_module_names) | {"numpy", "metricert"}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_no_unused_imports():
    # every name a module imports is used in that module; __init__ imports
    # to re-export, and `from __future__` imports compiler flags
    for path in sorted((ROOT / "src" / "metricert").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused = sorted(imported - used)
        assert not unused, f"{path.name} imports unused {unused}"

"""Benchmark of metricert's fit -> certify -> validate pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 34 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread in the workload process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import RETURN_COUNTERS, TRACED_MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, CallResult  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# per-layer metrics: function self times and call counts, module self times
FN_SELF = (
    "solver.solve", "solver.psd_project", "solver.prox", "solver.solve_kernel",
    "solver.solve_triplet", "core.build_triplets", "core.metric_matrix",
    "bounds.empirical_epsilon_triplet", "bounds.empirical_epsilon",
    "bounds.pseudo_robust_count", "cover.greedy_cover", "cover.assign_cells",
    "harness.knn_eval", "harness.gen_synthetic", "harness.true_loss_estimate",
    "bounds.bhc_simulate",
)
FN_CALLS = ("solver.psd_project", "core.metric_matrix")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    """metricert.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "metricert" / "__init__.py").is_file():
        raise RuntimeError(f"no metricert package under {SRC}")
    sys.path.insert(0, str(SRC))
    import metricert.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"metricert imported from {cli.__file__}, not from {SRC}")
    return cli


def run_call(cli, call) -> CallResult:
    """One CLI operation through cli.main(argv), looked up at call time so
    that an installed span wrapper sees it; output is captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(call.argv))
        except SystemExit as e:  # argparse rejects an argv by exiting
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # a crash is a failed operation, not a failed bench
            traceback.print_exc()
            code = -1
    seconds = perf_counter() - t0
    return CallResult(call, 0 if code is None else int(code), seconds, out.getvalue(), err.getvalue())


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI, as each
    ``metricert`` command pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import metricert.cli"], env=env, check=True, cwd=ROOT)
    return perf_counter() - t0


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "git_commit": git_commit(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if names:
            env["cpu_model"] = names[0]
    except OSError:
        pass
    return env


def git_commit() -> str | None:
    """HEAD of this checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _rounded(values):
    return [round(v, 4) for v in values]


def median(values):
    return statistics.median(values) if values else None


def per_layer(summaries: list, tracer: Tracer, traced_totals: list, overhead: float) -> tuple[dict, list]:
    """Median over traced passes of every per-layer metric; names whose
    function the program no longer defines are returned as absent."""
    metrics, absent = {}, []

    def put(name, unit, values, needs=()):
        if any(fn not in tracer.found for fn in needs):
            absent.append(name)
        else:
            metrics[name] = {"value": median(values), "unit": unit}

    for fn in FN_SELF:
        put(f"{fn}.self_s", "s", [s["fn_self"].get(fn, 0.0) for s in summaries], (fn,))
    for fn in FN_CALLS:
        put(f"{fn}.calls", "count", [s["fn_calls"].get(fn, 0) for s in summaries], (fn,))
    for mod in TRACED_MODULES:
        put(f"{mod}.self_s", "s", [s["mod_self"].get(mod, 0.0) for s in summaries])
    for (module, fn), (name, _) in RETURN_COUNTERS.items():
        put(name, "count", [s["counts"].get(name, 0) for s in summaries], (f"{module}.{fn}",))
    for name in ("core.max_matrix_bytes", "io.bytes_read", "io.bytes_written"):
        put(name, "bytes", [s[name] for s in summaries])
    put("trace.overhead_s", "s", [overhead])
    put("trace.coverage", "ratio", [s["top_level_s"] / t for s, t in zip(summaries, traced_totals)])
    put("trace.self_share", "ratio",
        [sum(s["mod_self"].values()) / t for s, t in zip(summaries, traced_totals)])
    return metrics, absent


def run_pass(cli, workload, tracer: Tracer | None) -> tuple[list, float]:
    """One pass of the workload's calls; traced when a tracer is given."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = perf_counter()
        results = [run_call(cli, call) for call in workload.calls]
        return results, perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()


def run(args, workdir: str) -> int:
    cli = import_cli()
    workload = WORKLOADS[args.workload](workdir)
    attempted, failed = 0, 0
    details = {}

    # set-up, repeated; its median is setup_s
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        import_seconds()
        workload.write_inputs(np.random.default_rng(args.seed))
        setup_results = [run_call(cli, c) for c in workload.setup_calls]
        setups.append(perf_counter() - t0)
        bad = {r.call.label for r in setup_results if r.code != 0}
        bad |= workload.check_setup(setup_results, details)
        attempted += len(setup_results)
        failed += len(bad)

    # Passes until the next one would end past the deadline.  Pass 0 warms
    # the allocator and the interpreter: a process's first pass runs up to
    # 2.5x slower per train call, mostly in page faults, so it is reported
    # apart as first_pass_s and left out of every median.  With --trace 1,
    # later passes alternate traced and untraced, starting traced.
    tracer = Tracer() if args.trace else None
    min_passes = 3  # the warm-up and two more, traced and untraced with --trace 1
    deadline = perf_counter() + args.seconds
    first_pass, untraced, traced, summaries = None, [], [], []
    stage_times, first_reports = {}, {}
    n_pass = 0
    while n_pass < min_passes or perf_counter() + median(untraced + traced) <= deadline:
        trace_this = tracer is not None and n_pass % 2 == 1
        results, total = run_pass(cli, workload, tracer if trace_this else None)
        if n_pass == 0:
            first_pass = total
        elif trace_this:
            traced.append(total)
            summaries.append(tracer.summary())
        else:
            untraced.append(total)
            per_stage = {}
            for r in results:
                per_stage[r.call.stage] = per_stage.get(r.call.stage, 0.0) + r.seconds
            for stage, seconds in per_stage.items():
                stage_times.setdefault(stage, []).append(seconds)
        n_pass += 1

        bad = {r.call.label for r in results if r.code != 0}
        bad |= workload.check_pass(results, details)
        for r in results:
            if r.call.report and r.code == 0:
                with open(r.call.report, "rb") as fh:
                    data = fh.read()
                if first_reports.setdefault(r.call.label, data) != data:
                    bad.add(r.call.label)  # reports must be byte-identical (criterion 10)
            if r.call.label in bad:
                why = f"exit {r.code}: {r.stderr.strip()[-500:]}" if r.code else "output check"
                print(f"FAILED {r.call.label} ({why})")
        attempted += len(results)
        failed += len(bad)

    e2e = {
        "setup_s": {"value": median(setups), "unit": "s"},
        "total_s": {"value": median(untraced), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    breakdown = {f"{stage}_s": median(v) for stage, v in stage_times.items()}
    breakdown["first_pass_s"] = first_pass
    if args.workload == "validate" and "curve_s" in breakdown:
        breakdown["reps_per_s"] = workload.reps_per_pass / breakdown["curve_s"]
    if "objective" in details:
        breakdown["objective"] = sum(details["objective"].values())

    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: setup runs {_rounded(setups)} s, "
          f"first pass {first_pass:.4f} s, untraced passes {_rounded(untraced)} s, traced passes {_rounded(traced)} s")
    print("details " + json.dumps({"breakdown": breakdown, **details}, sort_keys=True))
    for name, m in e2e.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in sorted(breakdown.items()):
        print(f"  {name:40s} {value:.6g}")

    metrics = e2e
    if tracer is not None:
        overhead = median(traced) - median(untraced)
        metrics, absent = per_layer(summaries, tracer, traced, overhead)
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        if absent:
            print("absent (not defined by this version of the program): " + ", ".join(absent))
    print(f"attempted {attempted} failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    try:
        return run(args, workdir)
    except (RuntimeError, ImportError, OSError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


if __name__ == "__main__":
    sys.exit(main())

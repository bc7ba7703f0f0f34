"""Digest of every output of the bench workloads, to check that a change
leaves what the program writes and prints byte-identical.

Usage, from anywhere:

    python3 tools/output_digest.py SRC_ROOT SEED

For each workload of SRC_ROOT/perfbench/workloads.py it runs the set-up
(the inputs from numpy.random.default_rng(SEED), then the set-up calls)
and one pass of the workload's CLI calls through metricert.cli.main, with
metricert imported from SRC_ROOT/src and one BLAS thread, as the bench
runs them.  It prints the exit code of each call, the sha256 of each
line the call printed (the work directory's path replaced by WORK), and
the sha256 of each file the workload left.  The work files go to a
temporary directory that is removed at the end; SRC_ROOT is only read.
Compare two checkouts by running both at one seed and diffing the output.
"""

from __future__ import annotations

import os

# fixed before numpy loads, as in perfbench/run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(root: Path, seed: int):
    """Yield the digest lines of every workload at `seed`."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import metricert.cli as cli
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as work:
            w = workload(work)
            w.write_inputs(np.random.default_rng(seed))
            for call in w.setup_calls + w.calls:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(call.argv))
                yield f"{name} | {call.label} | exit {code}"
                for k, line in enumerate(out.getvalue().replace(work, "WORK").splitlines()):
                    yield f"{name} | {call.label} | stdout {k} | {sha256(line.encode())}"
            for path in sorted(Path(work).iterdir()):
                yield f"{name} | {path.name} | {sha256(path.read_bytes())}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not argv[1].lstrip("-").isdigit():
        print("usage: output_digest.py SRC_ROOT SEED", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if not (root / "src" / "metricert" / "__init__.py").is_file():
        print(f"error: no src/metricert under {root}", file=sys.stderr)
        return 2
    for line in digest(root, int(argv[1])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: gen, train, audit, bound, bhc, curve, knn.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .bounds import BoundQuery, bhc_simulate, bound_value
from .core import FAMILIES, Dataset
from .cover import CoverConfig
from .harness import SyntheticSpec, certify, gap_curve, gen_synthetic, knn_eval, train_family
from .solver import SolverConfig


def _add_gen(sub):
    p = sub.add_parser("gen", help="write a synthetic dataset CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--cov-scale", type=float, default=0.3)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)


def _add_train(sub):
    p = sub.add_parser("train", help="fit a metric from a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="fro", choices=FAMILIES)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--step0", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)


def _add_audit(sub):
    p = sub.add_parser("audit", help="certify a model against a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--probe", help="probe CSV; defaults to the training data")
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="fro", choices=FAMILIES)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--norm", default="l2", choices=["l1", "l2"])
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)


def _add_bound(sub):
    p = sub.add_parser("bound", help="evaluate a generalization bound")
    p.add_argument("--mode", default="pair", choices=["pair", "triplet", "pseudo"])
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--p-hat", type=int, default=0)


def _add_bhc(sub):
    p = sub.add_parser("bhc", help="multinomial concentration simulation")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--mu", required=True, help="comma-separated probabilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)


def _add_curve(sub):
    p = sub.add_parser("curve", help="gap-vs-n diagnostic CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--n-ladder", required=True, help="comma-separated sample sizes")
    p.add_argument("--out", required=True)


def _add_knn(sub):
    p = sub.add_parser("knn", help="k-NN accuracy under a learned metric")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--radius", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metricert")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_gen, _add_train, _add_audit, _add_bound, _add_bhc, _add_curve, _add_knn):
        add(sub)
    return parser


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(
        d=args.d, n=args.n, classes=args.classes,
        cov_scale=args.cov_scale, R=args.radius, seed=args.seed,
    )
    io.dataset_to_csv(gen_synthetic(spec), args.out)
    return 0


def _cmd_train(args) -> int:
    ds = io.dataset_from_csv(args.data, R=args.radius)
    cfg = SolverConfig(c=args.c, max_iters=args.iters, step0=args.step0, seed=args.seed)
    model = train_family(ds, args.family, cfg, args.sigma)
    io.save_model(model, args.out, c=args.c)
    rank = f" rank={model.info['rank']}" if "rank" in model.info else ""
    print(f"objective={model.info['objective']:.6g}{rank} -> {args.out}")
    return 0


def _cmd_audit(args) -> int:
    ds = io.dataset_from_csv(args.data, R=args.radius)
    probe = io.dataset_from_csv(args.probe, R=args.radius) if args.probe else ds
    # one common radius; the constructor checks the norms against it again
    R = max(ds.R, probe.R)
    ds = Dataset(ds.X, ds.y, R)
    probe = Dataset(probe.X, probe.y, R) if args.probe else ds
    fam = FAMILIES[args.family]
    model = io.load_model(args.model, anchors=ds if fam.kind == "kernelized" else None)
    # the certificate's constants hold only for the c and the bandwidth the
    # model was trained with; certify checks the family
    if model.info["c"] is not None and model.info["c"] != args.c:
        raise ValueError(f"model was trained at c={model.info['c']!r}, not --c {args.c!r}")
    if model.kind == "kernelized" and model.kernel.sigma != args.sigma:
        raise ValueError(
            f"model was trained at sigma={model.kernel.sigma!r}, not --sigma {args.sigma!r}"
        )
    report = certify(
        model, ds, probe, args.family,
        CoverConfig(gamma=args.gamma, norm=args.norm),
        c=args.c, delta=args.delta, seed=args.seed,
    )
    io.write_json(report.to_json_dict(), args.out)
    print(
        f"epsilon_empirical={report.epsilon_empirical:.6g} "
        f"epsilon_theoretical={report.epsilon_theoretical:.6g} "
        f"bound_pair={report.bound_pair:.6g}"
    )
    return 0


def _cmd_bound(args) -> int:
    q = BoundQuery(
        epsilon=args.epsilon, B=args.B, K=args.K, n=args.n,
        delta=args.delta, mode=args.mode, p_hat=args.p_hat,
    )
    print(repr(bound_value(q)))
    return 0


def _cmd_bhc(args) -> int:
    mu = [float(v) for v in args.mu.split(",")]
    res = bhc_simulate(args.K, mu, args.n, args.lam, trials=args.trials, seed=args.seed)
    print(
        f"empirical_tail={res.empirical_tail:.6g} cap={res.cap:.6g} "
        f"se={res.std_error:.3g} violated={res.violated}"
    )
    return 0


def _cmd_curve(args) -> int:
    cfg = io.load_config(args.config)
    ladder = [int(v) for v in args.n_ladder.split(",")]
    rows = gap_curve(cfg, ladder)
    io.curve_to_csv(rows, args.out)
    for row in rows:
        print(f"n={row['n']} gap={row['gap']:.6g} bound={row['bound']:.6g}")
    return 0


def _cmd_knn(args) -> int:
    train = io.dataset_from_csv(args.train, R=args.radius)
    test = io.dataset_from_csv(args.test, R=args.radius)
    model = io.load_model(args.model, anchors=train)
    acc = knn_eval(model, train, test, args.k)
    print(f"accuracy={acc:.6g}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "audit": _cmd_audit,
    "bound": _cmd_bound,
    "bhc": _cmd_bhc,
    "curve": _cmd_curve,
    "knn": _cmd_knn,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ArithmeticError, np.linalg.LinAlgError, OverflowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

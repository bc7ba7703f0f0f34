"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.
"""

import numpy as np
import pytest
from scipy.stats import binom

from metricert.bounds import (
    BoundQuery,
    bhc_simulate,
    bound_value,
    pseudo_bound,
)
from metricert.core import (
    FAMILIES,
    PAIR_G0,
    TRIPLET_LOSS,
    Dataset,
    KernelSpec,
    empirical_loss,
    rbf_fH,
)
from metricert.cover import CoverConfig
from metricert.harness import (
    ExperimentConfig,
    SyntheticSpec,
    certify,
    gap_curve,
    gen_synthetic,
    run_experiment,
    train_family,
)
from metricert.io import (
    dataset_from_csv,
    dataset_to_csv,
    dumps,
    load_model,
    save_model,
)
from metricert import solver
from metricert.solver import (
    SolverConfig,
    loss_subgradient,
    prox,
    psd_project,
    reg_norm,
    solve,
    solve_kernel,
)

def _report(num: int, name: str, ok: bool) -> None:
    print(f"\nCRITERION {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _random_dataset(rng, n, d, R=1.0, classes=2):
    spec = SyntheticSpec(
        d=d, n=n, classes=classes, cov_scale=0.3, R=R, seed=int(rng.integers(2**31))
    )
    return gen_synthetic(spec)


def test_criterion_01_capacity_invariant():
    """||M*||_reg <= g0/c within 1e-6 relative, 50 instances, 5 families."""
    rng = np.random.default_rng(101)
    families = ("fro", "l1", "l21", "bilinear", "kernel-rbf")
    ok = True
    for i in range(50):
        family = families[i % len(families)]
        n = int(rng.integers(8, 41))
        d = int(rng.integers(2, 6))
        c = float(rng.uniform(0.05, 2.0))
        ds = _random_dataset(rng, n, d)
        cfg = SolverConfig(c=c, max_iters=60)
        if family == "kernel-rbf":
            m = solve_kernel(ds, KernelSpec("rbf", 1.0), cfg)
            norm = m.info["feature_norm"]
        elif family == "bilinear":
            m = solve(ds, "fro", cfg, kind="bilinear")
            norm = reg_norm(m.M, "fro")
        else:
            m = solve(ds, family, cfg)
            norm = reg_norm(m.M, family)
        cap = PAIR_G0 / c
        ok = ok and norm <= cap * (1.0 + 1e-6)
    _report(1, "capacity invariant ||M*||_reg <= g0/c (rel 1e-6)", ok)


def test_criterion_02_robustness_soundness():
    """empirical epsilon never exceeds the closed-form constant, any family."""
    rng = np.random.default_rng(202)
    violations = 0
    for family in FAMILIES:
        for i in range(20):
            n = int(rng.integers(8, 15))
            d = int(rng.integers(2, 4))
            c = float(rng.uniform(0.1, 1.0))
            gamma = float(rng.uniform(0.3, 0.8))
            ds = _random_dataset(rng, n, d)
            probe = _random_dataset(rng, 20, d)
            cfg = SolverConfig(c=c, max_iters=40)
            model = train_family(ds, family, cfg, sigma=1.0)
            rep = certify(
                model, ds, probe, family, CoverConfig(gamma=gamma),
                c=c, delta=0.05,
            )
            if rep.epsilon_empirical > rep.epsilon_theoretical + 1e-12:
                violations += 1
    _report(2, f"robustness soundness ({violations} violations)", violations == 0)


def test_criterion_03_generalization_bound_validation():
    """certified pair bound covers the empirical gap in >= 19/20 repetitions."""
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n=200, d=2, seed=0),
        solver=SolverConfig(c=0.1, max_iters=150),
        cover=CoverConfig(gamma=0.5),
        family="fro",
        delta=0.05,
        repetitions=20,
        mc_size=20_000,
        probe_size=100,
    )
    reports, _summary = run_experiment(cfg)
    holds = sum(r.holds for r in reports)
    _report(3, f"bound validation ({holds}/20 hold, need >= 19)", holds >= 19)


def test_criterion_04_pseudo_collapse_and_triplet_coefficient():
    """pseudo bound at p_hat = n^2 equals the pair bound; triplet sqrt-term
    coefficient is exactly 1.5x the pair one."""
    ok = True
    for eps, B, K, n, delta in [
        (0.1, 3.0, 4, 100, 0.05),
        (0.7, 10.0, 12, 37, 0.2),
        (0.0, 1.0, 2, 5, 0.5),
    ]:
        q_pair = BoundQuery(eps, B, K, n, delta)
        pair = bound_value(q_pair)
        pseudo = pseudo_bound(q_pair, n * n)
        triplet = bound_value(BoundQuery(eps, B, K, n, delta, TRIPLET_LOSS.order))
        ok = ok and abs(pseudo - pair) <= 1e-12
        ok = ok and (triplet - eps) / (pair - eps) == pytest.approx(1.5, abs=1e-12)
    _report(4, "pseudo collapse (abs 1e-12) and 1.5x triplet coefficient", ok)


def test_criterion_05_multinomial_concentration():
    """empirical tail <= 2^K exp(-n lam^2/2) + 3 SE on the grid; the
    (K=2, n=100, lam=0.3) case matches the exact binomial probability."""
    ok = True
    for K in (2, 4):
        mu = [1.0 / K] * K
        for n in (50, 200):
            for lam in (0.2, 0.4):
                res = bhc_simulate(K, mu, n, lam, trials=100_000, seed=K * n)
                ok = ok and not res.violated
    res = bhc_simulate(2, [0.5, 0.5], 100, 0.3, trials=100_000, seed=7)
    # statistic 2|N1/100 - 0.5| >= 0.3 is exactly |N1 - 50| >= 15
    exact = float(2.0 * binom.cdf(35, 100, 0.5))
    se = max(np.sqrt(exact * (1.0 - exact) / 100_000), 1e-9)
    ok = ok and abs(res.empirical_tail - exact) <= 3.0 * se
    _report(5, "multinomial concentration grid + exact binomial case", ok)


def _brute_prox(M, tau, reg, tol=2e-4):
    """Grid minimization of 0.5||X - M||_F^2 + tau*||X||_reg along the known
    solution structure (scaling for fro, per-entry for l1, per-column l21)."""
    M = np.asarray(M, dtype=float)
    if reg == "fro":
        grid = np.linspace(0.0, 1.0, 20_001)
        nrm = np.linalg.norm(M, "fro")
        vals = 0.5 * (1.0 - grid) ** 2 * nrm**2 + tau * grid * nrm
        return grid[np.argmin(vals)] * M
    if reg == "l1":
        out = np.empty_like(M)
        for idx, v in np.ndenumerate(M):
            grid = np.linspace(-abs(v), abs(v), 20_001)
            vals = 0.5 * (grid - v) ** 2 + tau * np.abs(grid)
            out[idx] = grid[np.argmin(vals)]
        return out
    out = np.empty_like(M)
    for j in range(M.shape[1]):
        col = M[:, j]
        nrm = np.linalg.norm(col)
        grid = np.linspace(0.0, 1.0, 20_001)
        vals = 0.5 * (1.0 - grid) ** 2 * nrm**2 + tau * grid * nrm
        out[:, j] = grid[np.argmin(vals)] * col
    return out


def test_criterion_06_numerical_oracles():
    """prox vs brute force (1e-3), subgradient vs central differences
    (1e-4 relative), psd_project validity and idempotence (1e-10)."""
    rng = np.random.default_rng(606)
    ok = True
    # 100 prox cases split across the three regularizers
    for i in range(100):
        reg = ("fro", "l1", "l21")[i % 3]
        M = rng.uniform(-2, 2, size=(3, 3))
        tau = float(rng.uniform(0.0, 2.0))
        ok = ok and np.max(np.abs(prox(M, tau, reg) - _brute_prox(M, tau, reg))) <= 1e-3
    # subgradient at 10 smooth (kink-free) points
    checked = 0
    while checked < 10:
        n, d = 6, 2
        ds = _random_dataset(rng, n, d)
        A = rng.standard_normal((d, d))
        M0 = A @ A.T + 1e-3 * np.eye(d)
        from metricert.core import MetricModel, metric_matrix

        m = MetricModel("mahalanobis", M=M0)
        F = metric_matrix(m, ds.X)
        li = ds.label_indices()
        Y = np.where(li[:, None] == li[None, :], 1.0, -1.0)
        args = Y * (1.0 - F)
        np.fill_diagonal(args, 0.0)  # self pairs are constant in M
        if np.min(np.abs(args - 1.0)) < 1e-3:
            continue
        checked += 1
        G = loss_subgradient(m, ds)
        h = 1e-6
        for a in range(d):
            for b in range(a, d):
                E = np.zeros((d, d))
                E[a, b] = E[b, a] = 1.0
                lp = empirical_loss(MetricModel("mahalanobis", M=M0 + h * E), ds)
                lm = empirical_loss(MetricModel("mahalanobis", M=M0 - h * E), ds)
                fd = (lp - lm) / (2.0 * h)
                an = G[a, b] + G[b, a] if a != b else G[a, a]
                ok = ok and abs(fd - an) <= 1e-4 * max(1.0, abs(fd))
    # psd projection
    for _ in range(50):
        M = rng.uniform(-2, 2, size=(4, 4))
        P = psd_project(M)
        ok = ok and np.linalg.eigvalsh((P + P.T) / 2.0).min() >= -1e-10
        ok = ok and np.max(np.abs(psd_project(P) - P)) <= 1e-10
    _report(6, "numerical oracles (prox/subgradient/psd projection)", ok)


def test_criterion_07_kernel_consistency():
    """linear-kernel solve reproduces the plain solve (1e-4); the rbf feature
    Lipschitz constant matches brute-force pair maximization (1e-3)."""
    rng = np.random.default_rng(707)
    ok = True
    for i in range(5):
        ds = _random_dataset(rng, 10, 2)
        # a c small enough that both solves move off M = 0 on every dataset
        cfg = SolverConfig(c=0.02, max_iters=200)
        plain = solve(ds, "fro", cfg)
        kern = solve_kernel(ds, KernelSpec("linear"), cfg)
        for m in (plain, kern):
            ok = ok and m.info["iterations"] >= 1 and bool(np.abs(m.M).max() > 0.0)
        lp = empirical_loss(plain, ds)
        lk = empirical_loss(kern, ds)
        ok = ok and abs(lp - lk) <= 1e-4
        # the step, the dual bound and the gap stop are invariant under the
        # linear kernel's coordinates, so both solves stop at one iterate
        ok = ok and kern.info["iterations"] == plain.info["iterations"]
    for sigma in (0.5, 1.0, 2.0):
        for gamma in (0.5, 1.0, 2.0):
            best = 0.0
            # pairs at distance <= gamma; include the extreme distance itself
            dists = np.concatenate([rng.uniform(0, gamma, size=9_999), [gamma]])
            feat = 2.0 * (1.0 - np.exp(-(dists**2) / (2.0 * sigma**2)))
            best = float(feat.max())
            ok = ok and abs(rbf_fH(gamma, sigma) - best) <= 1e-3
    _report(7, "kernel consistency + rbf feature constant", ok)


def test_criterion_08_rate_check():
    """sqrt concentration term decays exactly as n^(-1/2); the measured
    mean gap decays with log-log slope <= -0.3 over n in {50,...,400}."""
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n=50, d=2, seed=0),
        solver=SolverConfig(c=0.1, max_iters=150),
        cover=CoverConfig(gamma=0.5),
        family="fro",
        repetitions=10,
        mc_size=20_000,
        probe_size=100,
    )
    rows = gap_curve(cfg, [50, 100, 200, 400])
    logn = np.log([r["n"] for r in rows])
    sqrt_slope = np.polyfit(logn, np.log([r["sqrt_term"] for r in rows]), 1)[0]
    gap_slope = np.polyfit(logn, np.log([r["gap"] for r in rows]), 1)[0]
    ok = abs(sqrt_slope - (-0.5)) <= 1e-12 and gap_slope <= -0.3
    _report(8, f"rate check (sqrt slope {sqrt_slope:.3f}, gap slope {gap_slope:.3f})", ok)


def test_criterion_09_sparsity_contrast():
    """on the d=5 task, l1 zeroes >= 2x the fro count and l21 kills whole
    columns while fro kills none — averaged over 10 seeds; a solve that
    returns M = 0 has a gap within GAP_TOL of its dual bound."""
    z_fro, z_l1, cols_l21, cols_fro, uncertified = [], [], [], [], 0
    for seed in range(10):
        ds = gen_synthetic(SyntheticSpec(d=5, n=60, seed=seed))
        cfg = SolverConfig(c=0.1, max_iters=200)
        mf = solve(ds, "fro", cfg)
        m1 = solve(ds, "l1", cfg)
        m21 = solve(ds, "l21", cfg)
        # a model that stays at M = 0 is certified optimal within the gap
        uncertified += sum(
            not m.M.any() and m.info["gap"] > solver.GAP_TOL * m.info["dual_bound"]
            for m in (mf, m1, m21)
        )
        z_fro.append(np.sum(np.abs(mf.M) < 1e-6))
        z_l1.append(np.sum(np.abs(m1.M) < 1e-6))
        cols_l21.append(np.sum(np.linalg.norm(m21.M, axis=0) < 1e-6))
        cols_fro.append(np.sum(np.linalg.norm(mf.M, axis=0) < 1e-6))
    ok = (
        np.mean(z_l1) >= 2.0 * max(np.mean(z_fro), 0.5)
        and np.mean(cols_l21) >= 1.0
        and np.mean(cols_fro) == 0.0
        and uncertified == 0
    )
    _report(
        9,
        f"sparsity contrast (l1 {np.mean(z_l1):.1f} vs fro {np.mean(z_fro):.1f} zeros; "
        f"l21 {np.mean(cols_l21):.1f} zero cols)",
        ok,
    )


def test_criterion_10_determinism_and_io(tmp_path):
    """same config + seed -> byte-identical reports; exact file round-trips."""
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n=40, d=2, seed=3),
        solver=SolverConfig(c=0.3, max_iters=60),
        cover=CoverConfig(gamma=0.5),
        repetitions=2,
        mc_size=2_000,
        probe_size=30,
    )
    a = [dumps(r.to_json_dict()) for r in run_experiment(cfg)[0]]
    b = [dumps(r.to_json_dict()) for r in run_experiment(cfg)[0]]
    ok = a == b
    ds = gen_synthetic(SyntheticSpec(n=25, seed=4))
    p = tmp_path / "ds.csv"
    dataset_to_csv(ds, p)
    back = dataset_from_csv(p, R=ds.R)
    ok = ok and np.array_equal(ds.X, back.X) and ds.y == back.y
    model = solve(ds, "fro", SolverConfig(c=0.3, max_iters=40))
    mp = tmp_path / "m.json"
    save_model(model, mp)
    ok = ok and np.array_equal(load_model(mp).M, model.M)
    _report(10, "determinism and exact I/O round-trips", ok)

"""End-to-end acceptance checklist for the fitted-covariance pipeline.

Each test prints exactly one line of the form

    ACCEPT nn <name>: PASS|FAIL <measurements>

so running ``pytest -s tests/test_acceptance.py`` doubles as a readable
report. Tolerances are pinned in the constants below and are the same in
both modes; FABLE_ACCEPTANCE_FULL=1 only raises the replicate count of
the replication study (25 -> 100), which roughly quadruples its runtime.

The dimension-blessing test (06) asserts two strict inequalities between
p=500 and p=5000 at n=500: the latent subspace error shrinks, and so does
the distance from fable's covariance estimate to the conjugate posterior
mean built from the true factor scores. It does not assert that the
relative spectral error against the truth shrinks: at fixed n that error
rises with p even for the known-factor posterior, because both share the
sampling error of the factor scores (test 01's table shows the same
trend). Test 06 prints that error for fable and for the known-factor
posterior as information.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from fable.inference import credible_intervals, oos_loglik
from fable.linalg import (
    DataMatrix,
    LinearMap,
    center_columns,
    spectral_norm,
    truncated_svd,
)
from fable.model import fit, hyperparameters_from_factors
from fable.sampler import RngSpec, draw_samples, posterior_mean, sample_entry_stats
from fable.simharness import (
    SimulationConfig,
    StructuredCovariance,
    generate_data,
    generate_data_with_scores,
    generate_truth,
    rel_spectral_error,
    run_study,
    runtime_benchmark,
)

from test_model import factor_estimate
from test_sampler import sample_entries

HERE = Path(__file__).resolve().parent

FULL = os.environ.get("FABLE_ACCEPTANCE_FULL", "") == "1"
REPLICATES = 100 if FULL else 25
SEED = 42

TABLE_CELLS = ((500, 1000), (1000, 1000), (500, 5000), (1000, 5000))
ERROR_TARGETS = (0.31, 0.22, 0.32, 0.24)
ERROR_TOL = 0.04
WIDTH_TARGETS = (0.48, 0.35, 0.50, 0.35)
WIDTH_REL_TOL = 0.30
COVERAGE_BAND = (0.92, 0.98)


def _report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPT {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def study():
    configs = [
        SimulationConfig(n=n, p=p, k_true=10, replicates=REPLICATES, seed=SEED, tracked=100)
        for n, p in TABLE_CELLS
    ]
    return run_study(configs)


def test_01_estimation_error_table(study):
    parts, ok = [], True
    for summary, target in zip(study.summaries, ERROR_TARGETS):
        gap = abs(summary.mean_rel_error - target)
        ok = ok and summary.failures == 0 and gap <= ERROR_TOL
        parts.append(f"{summary.config_id}={summary.mean_rel_error:.3f}(target {target:.2f})")
    line = _report(1, "estimation-error-table", ok,
                   f"R={REPLICATES} tol +/-{ERROR_TOL} " + " ".join(parts))
    assert ok, line


def test_02_interval_calibration(study):
    lo, hi = COVERAGE_BAND
    parts, ok = [], True
    for summary, target in zip(study.summaries, WIDTH_TARGETS):
        rel = abs(summary.mean_width - target) / target
        ok = ok and lo <= summary.mean_coverage <= hi and rel <= WIDTH_REL_TOL
        parts.append(f"{summary.config_id}: cov={summary.mean_coverage:.3f}"
                     f" width={summary.mean_width:.3f}(target {target:.2f})")
    line = _report(2, "interval-calibration", ok,
                   f"R={REPLICATES} band [{lo},{hi}] width tol {WIDTH_REL_TOL:.0%}; "
                   + " ".join(parts))
    assert ok, line


def test_03_root_rotation_invariance():
    n, p, k = 300, 400, 6
    cfg = SimulationConfig(n=n, p=p, k_true=k, replicates=1, seed=SEED, tracked=1)
    truth = generate_truth(cfg, np.random.default_rng(np.random.SeedSequence((SEED, 0))))
    data = generate_data(truth, n, np.random.default_rng(np.random.SeedSequence((SEED, 2, 0))))
    model = fit(data, k=k)
    svd = truncated_svd(data, k)
    base_gram = model.mu @ model.mu.T

    rng = np.random.default_rng(np.random.SeedSequence((SEED, 30)))
    scale = svd.singvals / np.sqrt(n * p)
    worst = 0.0
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        mhat = factor_estimate(svd, c=scale[:, None] * q)
        worst = max(worst, float(np.abs(mhat.T @ mhat - n * np.eye(k)).max()))
        worst = max(worst, float(np.abs(mhat @ mhat.T - n * (svd.u @ svd.u.T)).max()))
        mu, delta_sq, _ = hyperparameters_from_factors(
            mhat, data.values, model.tau_sq,
            gamma0=model.gamma0, delta0_sq=model.delta0_sq)
        worst = max(worst, float(np.abs(mu @ mu.T - base_gram).max()))
        worst = max(worst, float(np.abs(delta_sq - model.delta_sq).max()))
    ok = worst <= 1e-8
    line = _report(3, "root-rotation-invariance", ok,
                   f"20 rotations at n={n} p={p} k={k}, max drift {worst:.2e} (tol 1e-08)")
    assert ok, line


def test_04_analytic_vs_monte_carlo():
    n, p, k, n_mc = 200, 50, 5, 100_000
    cfg = SimulationConfig(n=n, p=p, k_true=k, replicates=1, seed=SEED, tracked=1)
    truth = generate_truth(cfg, np.random.default_rng(np.random.SeedSequence((SEED, 0))))
    data = generate_data(truth, n, np.random.default_rng(np.random.SeedSequence((SEED, 2, 0))))
    model = fit(data, k=k)

    # 40 distinct off-diagonal pairs plus 10 diagonal entries.
    cols = np.random.default_rng(np.random.SeedSequence((SEED, 7))).permutation(p)
    pairs = [(int(min(cols[i], cols[i + 1])), int(max(cols[i], cols[i + 1])))
             for i in range(40)]
    pairs += [(int(c), int(c)) for c in cols[:10]]
    assert len(set(pairs)) == 50

    mc = sample_entry_stats(model, n_mc, RngSpec(11), pairs)
    analytic = posterior_mean(model, form="dense_entrywise", indices=pairs)
    worst = float(np.max(np.abs(mc.mean - analytic) / (mc.sd / np.sqrt(n_mc))))
    ok = worst <= 4.0
    line = _report(4, "analytic-vs-monte-carlo", ok,
                   f"50 entries, {n_mc} draws, worst |z|={worst:.2f} (tol 4 MC SEs)")
    assert ok, line


def test_05_draw_normality():
    n, p, k, n_draws = 2000, 500, 10, 5000
    cfg = SimulationConfig(n=n, p=p, k_true=k, replicates=1, seed=SEED, tracked=1)
    truth = generate_truth(cfg, np.random.default_rng(np.random.SeedSequence((SEED, 0))))
    data = generate_data(truth, n, np.random.default_rng(np.random.SeedSequence((SEED, 2, 0))))
    model = fit(data, k=k)

    cols = np.random.default_rng(np.random.SeedSequence((SEED, 7))).permutation(p)
    pairs = [(int(cols[2 * i]), int(cols[2 * i + 1])) for i in range(20)]
    grid = credible_intervals(model, pairs, alpha=0.05, method="asymptotic")

    us, vs = zip(*pairs)
    vals = np.array([sample_entries(sample, us, vs)
                     for sample in draw_samples(model, n_draws, RngSpec(11))])

    crit = float(special.kolmogi(0.01)) / np.sqrt(n_draws)
    ks = [float(stats.kstest((vals[:, j] - grid.center[j]) / grid.asym_sd[j],
                             "norm").statistic)
          for j in range(len(pairs))]
    ok = max(ks) < crit
    line = _report(5, "draw-normality", ok,
                   f"20 off-diagonal entries at n={n} p={p}, {n_draws} draws, "
                   f"max KS {max(ks):.4f} (1% critical value {crit:.4f})")
    assert ok, line


def test_06_dimension_blessing():
    # The known-factor posterior is the conjugate posterior built from the
    # true factor scores, centered and orthonormalised the way the fit's
    # own factors are; see the module docstring for what is asserted.
    n, k, reps = 500, 10, 20
    medians = {}
    for p in (500, 5000):
        cfg = SimulationConfig(n=n, p=p, k_true=k, replicates=reps, seed=SEED, tracked=1)
        truth = generate_truth(cfg, np.random.default_rng(np.random.SeedSequence((SEED, 0))))
        truth_norm = spectral_norm(
            LinearMap(shape=(p, p), matvec=truth.matvec), tol=1e-6)
        subs, rels, knowns, gaps = [], [], [], []
        for r in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence((SEED, 2, r)))
            data, scores = generate_data_with_scores(truth, n, rng)
            model = fit(data, k=k)
            basis, _ = np.linalg.qr(scores - scores.mean(axis=0))
            subs.append(float(np.linalg.norm(
                model.u @ model.u.T - basis @ basis.T, 2)))
            mu_k, delta_k, _ = hyperparameters_from_factors(
                np.sqrt(n) * basis, data.values, model.tau_sq,
                gamma0=model.gamma0, delta0_sq=model.delta0_sq)
            known = StructuredCovariance(mu_k, delta_k)
            estimate = StructuredCovariance(model.mu, model.delta_sq)
            rels.append(rel_spectral_error(truth, estimate, truth_norm=truth_norm))
            knowns.append(rel_spectral_error(truth, known, truth_norm=truth_norm))
            gaps.append(rel_spectral_error(known, estimate))
        medians[p] = {name: float(np.median(vals)) for name, vals in
                      (("sub", subs), ("rel", rels), ("known", knowns), ("gap", gaps))}

    def trend(name: str) -> str:
        return f"{medians[500][name]:.3f}->{medians[5000][name]:.3f}"

    sub_ok = medians[5000]["sub"] < medians[500]["sub"]
    gap_ok = medians[5000]["gap"] < medians[500]["gap"]
    ok = sub_ok and gap_ok
    line = _report(6, "dimension-blessing", ok,
                   f"{reps} replicates at n={n}, p=500->5000: subspace error {trend('sub')} "
                   f"({'shrinks' if sub_ok else 'does not shrink'}), gap to known-factor "
                   f"posterior {trend('gap')} ({'shrinks' if gap_ok else 'does not shrink'}); "
                   f"rel spectral error (not asserted) fable {trend('rel')}, "
                   f"known-factor posterior {trend('known')}")
    assert ok, line


def test_07_sampling_cost_scaling():
    t0 = time.perf_counter()
    rows = runtime_benchmark([500 * i for i in range(1, 11)], n=500, k_true=10,
                             n_samples=1000, repeats=2, seed=SEED)
    elapsed = time.perf_counter() - t0
    slope = float(np.polyfit(np.log([r.p for r in rows]),
                             np.log([r.sample_seconds for r in rows]), 1)[0])
    ok = slope <= 1.3 and elapsed < 300.0
    line = _report(7, "sampling-cost-scaling", ok,
                   f"p=500..5000 at n=500, 1000 draws: log-log slope {slope:.2f} "
                   f"(tol 1.3), grid in {elapsed:.0f}s (tol 300s)")
    assert ok, line


def test_08_held_out_likelihood_gain():
    n_train, n_test, n_targets, n_extras, k = 155, 50, 100, 300, 6
    p_all = n_targets + n_extras
    wins, deltas = 0, []
    for s in range(10):
        rng = np.random.default_rng(np.random.SeedSequence((900 + s, 0)))
        lam = np.where(rng.random((p_all, k)) < 0.5, 0.0,
                       rng.normal(0.0, 0.5, (p_all, k)))
        sig = rng.uniform(0.5, 5.0, p_all)
        y_train = (rng.standard_normal((n_train, k)) @ lam.T
                   + rng.standard_normal((n_train, p_all)) * np.sqrt(sig))
        y_test = (rng.standard_normal((n_test, k)) @ lam.T
                  + rng.standard_normal((n_test, p_all)) * np.sqrt(sig))
        train = center_columns(y_train)
        test = DataMatrix(y_test[:, :n_targets])
        targets = list(range(n_targets))
        base = oos_loglik(train, test, targets, [], k=k)
        lifted = oos_loglik(train, test, targets, list(range(n_targets, p_all)), k=k)
        deltas.append(lifted - base)
        wins += int(lifted > base)
    ok = wins >= 8
    line = _report(8, "held-out-likelihood-gain", ok,
                   f"{n_extras} extra columns: {wins}/10 splits improve "
                   f"(need >=8), median gain {float(np.median(deltas)):+.1f}")
    assert ok, line


def test_09_module_oracle_suites():
    files = [HERE / f"test_{name}.py"
             for name in ("linalg", "model", "sampler", "inference", "simharness", "io_cli")]
    missing = [f.name for f in files if not f.exists()]
    assert not missing, f"module suites not found: {missing}"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *map(str, files)],
        capture_output=True, text=True, cwd=HERE.parent)
    tail = [ln for ln in proc.stdout.strip().splitlines() if ln.strip()]
    ok = proc.returncode == 0
    line = _report(9, "module-oracle-suites", ok,
                   tail[-1] if tail else f"exit code {proc.returncode}")
    assert ok, line + "\n" + proc.stdout[-2000:]

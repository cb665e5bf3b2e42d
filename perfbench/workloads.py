"""The benchmark's three workloads.

Each workload makes its inputs from the seed, issues fable CLI commands
one at a time through a runner (a closed loop with one client), checks
the outputs against references computed apart from fable, and reduces
its passes to the end-to-end metrics:

- ``pass_s``: wall time of one pass of the workload's commands;
- ``fit_s``: wall time of one model fit as the workload makes it;
- ``items_per_s``: the workload's unit of work per second: input cells
  through the pipeline, study replicates, or draws written to the stream.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import require

PAPER_TABLE1 = {
    "n500_p1000_k10": 0.31,
    "n1000_p1000_k10": 0.22,
    "n500_p5000_k10": 0.32,
    "n1000_p5000_k10": 0.24,
}


def _indices_arg(indices: np.ndarray) -> str:
    return ",".join(str(int(i)) for i in indices)


def _tracked(rng: np.random.Generator, p: int, m: int) -> np.ndarray:
    return np.sort(rng.choice(p, size=m, replace=False))


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExprSizes:
    n: int = 500
    p: int = 10000
    k: int = 10
    tracked: int = 100


class ExprText:
    """Counts in a TSV file, through fit, mean, intervals and diagnose.

    The counts are round(2^y - 1) for y from a rank-k factor model on
    the log2 scale; half the columns carry 2.5x the loading and noise
    scale, so the 50% variance filter keeps them and the criterion has
    k clear factors to find.
    """

    name = "expr_text"
    setups = 5  # set-ups per untraced run; setup_s is their median
    # the byte-identity check compares fits; three passes steady the medians
    min_passes = 3
    commands_per_pass = 4
    filter_fraction = 0.5

    def __init__(self, seed: int, sizes: ExprSizes = ExprSizes()) -> None:
        self.seed, self.sizes = seed, sizes

    def setup(self, runner, workdir: Path) -> dict:
        n, p, k = self.sizes.n, self.sizes.p, self.sizes.k
        rng = np.random.default_rng([self.seed, 1])
        scale = np.where(rng.random(p) < 0.5, 1.0, 0.4)
        loadings = rng.normal(0.0, 0.5, (p, k)) * scale[:, None]
        noise_sd = rng.uniform(0.5, 1.0, p) * scale
        base = rng.uniform(5.0, 8.0, p)
        y = base + rng.standard_normal((n, k)) @ loadings.T
        y += rng.standard_normal((n, p)) * noise_sd
        self.counts = np.maximum(0.0, np.rint(np.exp2(y) - 1.0)).astype(np.int64)
        kept_count = int(np.ceil(self.filter_fraction * p))
        self.indices = _tracked(rng, kept_count, self.sizes.tracked)

        self.dir = workdir
        self.tsv = workdir / "counts.tsv"
        with open(self.tsv, "w") as fh:
            fh.write("sample\t" + "\t".join(f"g{j}" for j in range(p)) + "\n")
            for i, row in enumerate(self.counts.tolist()):
                fh.write(f"s{i}\t" + "\t".join(map(str, row)) + "\n")
        runner.fable(["--version"])
        return {}

    def _preprocess_flags(self) -> list[str]:
        return ["--input", str(self.tsv), "--transform", "log2_plus_one",
                "--filter-fraction", str(self.filter_fraction)]

    def run_pass(self, runner, pass_id: int) -> dict:
        d = self.dir
        fit_s = runner.fable(
            ["fit", *self._preprocess_flags(), "--output", str(d / "model.fable"),
             "--output-columns", str(d / "kept.txt")], pass_id)
        mean_s = runner.fable(
            ["mean", "--model", str(d / "model.fable"), "--form", "factored",
             "--output-loadings", str(d / "loadings.bin"),
             "--output-noise", str(d / "noise.bin")], pass_id)
        intervals_s = runner.fable(
            ["intervals", "--model", str(d / "model.fable"),
             "--indices", _indices_arg(self.indices), "--threads", "1",
             "--output", str(d / "intervals.csv")], pass_id)
        diagnose_s = runner.fable(
            ["diagnose", "--model", str(d / "model.fable"), *self._preprocess_flags(),
             "--output", str(d / "diagnose.json")], pass_id)
        pass_s = fit_s + mean_s + intervals_s + diagnose_s
        return {
            "pass_s": pass_s,
            "fit_s": fit_s,
            "items_per_s": self.counts.size / pass_s,
            "model_sha256": _sha256(d / "model.fable"),
        }

    def check(self, passes: list[dict]) -> None:
        from fable.io import load_matrix  # the program's parser, checked here

        d, n, p, k = self.dir, self.sizes.n, self.sizes.p, self.sizes.k
        loaded = load_matrix(self.tsv)
        require(np.array_equal(loaded.values, self.counts), "parsed matrix != generated counts")
        require(loaded.row_labels == tuple(f"s{i}" for i in range(n)), "row labels differ")
        require(loaded.col_labels == tuple(f"g{j}" for j in range(p)), "column labels differ")
        del loaded

        x = np.log2(1.0 + self.counts)
        kept = np.loadtxt(d / "kept.txt", dtype=np.int64, ndmin=1)
        checks.top_half_by_variance(x, kept, self.filter_fraction)
        model = checks.read_model(d / "model.fable")
        require(model["k"] == k, f"criterion chose k={model['k']}, data has rank {k}")
        diagnose = json.loads((d / "diagnose.json").read_text())
        require((diagnose["k"], diagnose["n"], diagnose["p"]) == (k, n, len(kept)),
                f"diagnose reports k, n, p = {diagnose['k']}, {diagnose['n']}, {diagnose['p']}")
        require(np.isfinite(diagnose["fitted_loglik"]), "diagnose log-likelihood is not finite")
        require(len({ps["model_sha256"] for ps in passes}) == 1,
                "repeated fits wrote different model artifacts")

        xk = x[:, kept]
        mu_ref, delta_ref = checks.ridge_posterior(xk - xk.mean(axis=0), k)
        loadings = checks.read_fablemat(d / "loadings.bin")
        noise = checks.read_fablemat(d / "noise.bin")[0]
        checks.assert_close(checks.align_signs(loadings, mu_ref), mu_ref, 1e-8, "loadings")
        u, v = checks.upper_pairs(self.indices)
        reference = checks.factored_entries(mu_ref, delta_ref, u, v)
        checks.assert_close(checks.factored_entries(loadings, noise, u, v), reference, 1e-8,
                            "mu mu' + diag(delta_sq) against the ridge solve")
        grid = checks.read_intervals(d / "intervals.csv")
        require(np.array_equal(grid["u"], u) and np.array_equal(grid["v"], v),
                "interval table holds other entries")
        require(bool(np.all((grid["lower"] < grid["center"]) & (grid["center"] < grid["upper"]))),
                "an interval does not hold its centre strictly inside")
        checks.assert_close(grid["center"], reference, 1e-8, "interval centres")

    def metrics(self, setups: list[dict], passes: list[dict]) -> dict:
        return {key: _median(passes, key) for key in ("pass_s", "fit_s", "items_per_s")}


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StudySizes:
    replicates: int = 4


class StudyTable1:
    """The paper-table1 replication study inside one `fable simulate`."""

    name = "study_table1"
    min_passes = 1
    commands_per_pass = 1
    # the set-up is one short process, so more of them steady its median
    setups = 15
    # At 4 replicates a cell's mean error strayed up to 0.057 from the
    # paper's over seeds 1-90 (see README.md), so each cell allows 0.06;
    # the mean over the four cells is steadier and keeps the 0.04 of
    # acceptance check 01.
    cell_tolerance = 0.06
    mean_tolerance = 0.04
    # A replicate whose power iteration does not converge is recorded by
    # the study and left out of its means; the fault is listed in
    # CHANGES.md. One such replicate per study is accepted; more, or any
    # other replicate failure, fails the check.
    tolerated_error = "ConvergenceFailure"
    tolerated_count = 1

    def __init__(self, seed: int, sizes: StudySizes = StudySizes()) -> None:
        self.seed, self.sizes = seed, sizes

    def setup(self, runner, workdir: Path) -> dict:
        self.dir = workdir
        runner.fable(["--version"])
        return {}

    def run_pass(self, runner, pass_id: int) -> dict:
        d, reps = self.dir, self.sizes.replicates
        wall = runner.fable(
            ["simulate", "--preset", "paper-table1", "--replicates", str(reps),
             "--seed", str(self.seed), "--threads", "1",
             "--output-records", str(d / "records.csv"),
             "--output-summaries", str(d / "summaries.csv")], pass_id)
        # only replicates that finished count as work
        done = [r for r in checks.read_csv_rows(d / "records.csv") if not r["error"]]
        fits = [float(r["fit_seconds"]) for r in done]
        return {"pass_s": wall, "fit_s": statistics.fmean(fits) if fits else float("nan"),
                "items_per_s": len(done) / wall}

    def check(self, passes: list[dict]) -> None:
        reps = self.sizes.replicates
        records = checks.read_csv_rows(self.dir / "records.csv")
        failures = [r for r in records if r["error"]]
        for rec in failures:
            require(rec["error"].split(":")[0] == self.tolerated_error,
                    f"replicate {rec['config_id']}/{rec['replicate']} failed: {rec['error']}")
        require(len(failures) <= self.tolerated_count,
                f"{len(failures)} replicates failed with {self.tolerated_error}, "
                f"at most {self.tolerated_count} accepted")
        summaries = {r["config_id"]: r for r in checks.read_csv_rows(self.dir / "summaries.csv")}
        require(set(summaries) == set(PAPER_TABLE1), f"study cells {sorted(summaries)}")
        for cell, paper in PAPER_TABLE1.items():
            s = summaries[cell]
            done, failed = int(s["replicates_done"]), int(s["failures"])
            require(done + failed == reps and done >= 1, f"{cell}: {done} done, {failed} failed")
            err, cov = float(s["mean_rel_error"]), float(s["mean_coverage"])
            require(abs(err - paper) <= self.cell_tolerance,
                    f"{cell}: mean error {err:.3f}, paper {paper}")
            require(0.92 <= cov <= 0.98, f"{cell}: mean coverage {cov:.3f}")
        error = np.mean([float(summaries[cell]["mean_rel_error"]) for cell in PAPER_TABLE1])
        paper_error = np.mean(list(PAPER_TABLE1.values()))
        require(abs(error - paper_error) <= self.mean_tolerance,
                f"mean error over the cells {error:.3f}, paper {paper_error:.4f}")
        print(f"study_spectral_error {error:.6f} (mean over the cells, fixed by the seed)")
        print(f"study replicates failed with {self.tolerated_error}: "
              f"{len(failures)} of {len(records)} (left out of the means and of items_per_s)")

    def metrics(self, setups: list[dict], passes: list[dict]) -> dict:
        return {key: _median(passes, key) for key in ("pass_s", "fit_s", "items_per_s")}


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DrawSizes:
    n: int = 500
    p: int = 5000
    k: int = 10
    draws: int = 500
    quantile_draws: int = 1000
    tracked: int = 100


class PosteriorDraws:
    """A model fitted in set-up, then the full draw stream and
    sample-quantile intervals from it."""

    name = "posterior_draws"
    setups = 5
    min_passes = 1
    commands_per_pass = 2

    def __init__(self, seed: int, sizes: DrawSizes = DrawSizes()) -> None:
        self.seed, self.sizes = seed, sizes
        # sampler threads; each runs one BLAS thread, so no more than the CPUs
        self.threads = min(2, len(os.sched_getaffinity(0)))

    def setup(self, runner, workdir: Path) -> dict:
        n, p, k = self.sizes.n, self.sizes.p, self.sizes.k
        rng = np.random.default_rng([self.seed, 3])
        # spike-and-slab loadings and uniform noise, as in the paper's study
        loadings = np.where(rng.random((p, k)) < 0.5, 0.0, rng.normal(0.0, 0.5, (p, k)))
        noise = rng.uniform(0.5, 5.0, p)
        data = rng.standard_normal((n, k)) @ loadings.T
        data += rng.standard_normal((n, p)) * np.sqrt(noise)
        self.indices = _tracked(rng, p, self.sizes.tracked)
        self.dir = workdir
        checks.write_fablemat(workdir / "data.bin", data)
        fit_s = runner.fable(["fit", "--input", str(workdir / "data.bin"), "--k", str(k),
                              "--output", str(workdir / "model.fable")])
        return {"fit_s": fit_s}

    def run_pass(self, runner, pass_id: int) -> dict:
        d, model = self.dir, str(self.dir / "model.fable")
        sample_s = runner.fable(
            ["sample", "--model", model, "--n-samples", str(self.sizes.draws),
             "--seed", str(self.seed), "--threads", str(self.threads),
             "--output", str(d / "draws.bin")], pass_id)
        quantile_s = runner.fable(
            ["intervals", "--model", model, "--indices", _indices_arg(self.indices),
             "--method", "sample_quantile", "--n-samples", str(self.sizes.quantile_draws),
             "--seed", str(self.seed), "--threads", str(self.threads),
             "--output", str(d / "quantile.csv")], pass_id)
        return {"pass_s": sample_s + quantile_s,
                "items_per_s": self.sizes.draws / sample_s}

    def check(self, passes: list[dict]) -> None:
        from fable.io import load_model
        from fable.sampler import RngSpec, draw_sample

        d, sz = self.dir, self.sizes
        t, lam, noise = checks.read_sample_stream(d / "draws.bin")
        require(np.array_equal(t, np.arange(1, sz.draws + 1)), "stream indices are not 1..draws")
        require(lam.shape == (sz.draws, sz.p, sz.k), f"stream loadings shape {lam.shape}")
        # draw t is a pure function of (seed, t)
        model = load_model(d / "model.fable")
        for index in sorted({1, sz.draws // 2, sz.draws}):
            draw = draw_sample(model, index, RngSpec(self.seed))
            require(np.array_equal(draw.loadings, lam[index - 1]) and
                    np.array_equal(draw.noise_sq, noise[index - 1]),
                    f"stream record {index} differs from draw_sample(model, {index})")

        art = checks.read_model(d / "model.fable")
        u, v = checks.upper_pairs(self.indices)
        diag = u == v
        values = np.stack([np.einsum("ek,ek->e", lt[u], lt[v]) + np.where(diag, nt[u], 0.0)
                           for lt, nt in zip(lam, noise)])
        se = values.std(axis=0, ddof=1) / np.sqrt(sz.draws)
        z = (values.mean(axis=0) - checks.closed_form_entry_means(art, u, v)) / se
        # 4 SE is exceeded by chance about 0.3 times in 5050 entries
        beyond = int(np.sum(np.abs(z) > 4.0))
        require(beyond <= max(1, len(z) // 500),
                f"{beyond} draw means lie beyond 4 SE of the closed form")

        grid = checks.read_intervals(d / "quantile.csv")
        require(np.array_equal(grid["u"], u) and np.array_equal(grid["v"], v),
                "quantile table holds other entries")
        center, sd, zq = checks.asymptotic_intervals(art, u, v)
        checks.assert_close(grid["center"], center, 1e-10, "quantile-table centres")
        checks.assert_close(grid["asym_sd"], sd, 1e-10, "quantile-table asymptotic sd")
        ratio = float(np.median((grid["upper"] - grid["lower"]) / (2 * zq * sd)))
        require(0.9 <= ratio <= 1.1, f"median quantile/asymptotic width ratio {ratio:.3f}")
        inside = float(np.mean((grid["lower"] < center) & (center < grid["upper"])))
        require(inside >= 0.99, f"asymptotic centre inside {inside:.1%} of quantile intervals")

    def metrics(self, setups: list[dict], passes: list[dict]) -> dict:
        return {
            "pass_s": _median(passes, "pass_s"),
            "fit_s": statistics.median(s["fit_s"] for s in setups),
            "items_per_s": _median(passes, "items_per_s"),
        }


WORKLOADS = {cls.name: cls for cls in (ExprText, StudyTable1, PosteriorDraws)}

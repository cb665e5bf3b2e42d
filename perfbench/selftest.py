"""Quick self-test of the benchmark: every workload at small sizes, its
checks, and proof that each workload's checks reject a wrong answer.

    python3 perfbench/selftest.py

Run from the root of a fable checkout. Commands go through
``fable.cli.main`` inside this process, so faults can be injected by
patching fable's module globals; nothing under src/ is touched.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import os
import shutil
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import fable.cli  # noqa: E402
import fable.simharness  # noqa: E402
from fable.errors import ConvergenceFailure  # noqa: E402

from checks import CheckFailed  # noqa: E402
from run import CommandFailed, measure  # noqa: E402
from tracing import pass_layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    PAPER_TABLE1,
    DrawSizes,
    ExprSizes,
    ExprText,
    PosteriorDraws,
    StudySizes,
    StudyTable1,
)


class InProcessRunner:
    """Runs fable commands through fable.cli.main in this process."""

    def __init__(self) -> None:
        self.workdir = None

    def fable(self, argv: list[str], pass_id: int | None = None) -> float:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = fable.cli.main(list(argv))
        if code != 0:
            raise CommandFailed(f"fable {argv[0]} exited {code}: {err.getvalue()}")
        return time.perf_counter() - start


def write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def scaled_mu(model, factor=1.01):
    return dataclasses.replace(model, mu=model.mu * factor)


class WorkloadChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}-{self._testMethodName}"
        self.runner = InProcessRunner()

    def tearDown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_workload(self, workload):
        result = measure(workload, self.runner, self.workdir, seconds=0.0, setups=1)
        workload.check(result["passes"])
        return result

    def assert_rejected(self, workload, reason: str, target, name: str, value) -> None:
        """Rerun a pass with ``target.name`` replaced by a faulty ``value``;
        the checks must fail with a message matching ``reason``."""
        with mock.patch.object(target, name, value):
            passes = [workload.run_pass(self.runner, 0)] * workload.min_passes
        with self.assertRaisesRegex(CheckFailed, reason):
            workload.check(passes)

    def test_expr_text(self) -> None:
        workload = ExprText(5, ExprSizes(n=120, p=800, k=4, tracked=12))
        self.run_workload(workload)
        save_model = fable.cli.save_model
        self.assert_rejected(workload, "^loadings", fable.cli, "save_model",
                             lambda path, model: save_model(path, scaled_mu(model)))

    def test_study_table1(self) -> None:
        workload = StudyTable1(1, StudySizes(replicates=1))
        self.run_workload(workload)
        fit = fable.simharness.fit
        # intervals at half the inflation cover far less than 92%
        self.assert_rejected(workload, "mean coverage", fable.simharness, "fit",
                             lambda data, **kw: dataclasses.replace(fit(data, **kw), rho=0.5))
        # a replicate that fails for any reason but the known one
        self.assert_rejected(workload, "failed: FableError", fable.simharness, "fit",
                             mock.Mock(side_effect=fable.simharness.FableError("injected")))
        # the known failure, but in every replicate rather than at most one
        self.assert_rejected(workload, "at most 1 accepted", fable.simharness,
                             "rel_spectral_error",
                             mock.Mock(side_effect=ConvergenceFailure("injected")))

    def test_study_mean_error(self) -> None:
        """Every cell 0.045 above the paper: inside each cell's bound, not
        inside the bound on the mean over the cells."""
        workload = StudyTable1(1, StudySizes(replicates=1))
        workload.dir = self.workdir
        self.workdir.mkdir(parents=True)
        write_csv(self.workdir / "records.csv",
                  [{"config_id": cell, "replicate": 0, "error": ""} for cell in PAPER_TABLE1])
        write_csv(self.workdir / "summaries.csv",
                  [{"config_id": cell, "replicates_done": 1, "failures": 0,
                    "mean_rel_error": paper + 0.045, "mean_coverage": 0.95}
                   for cell, paper in PAPER_TABLE1.items()])
        with self.assertRaisesRegex(CheckFailed, "mean error over the cells"):
            workload.check([])

    def test_posterior_draws(self) -> None:
        workload = PosteriorDraws(3, DrawSizes(n=100, p=300, k=3, draws=60,
                                               quantile_draws=200, tracked=15))
        self.run_workload(workload)
        draw_samples = fable.cli.draw_samples

        def shifted(model, count, rng, **kw):
            """Draw t + 1, labelled t."""
            kw["start"] += 1
            for sample in draw_samples(model, count, rng, **kw):
                yield dataclasses.replace(sample, index=sample.index - 1)

        self.assert_rejected(workload, "differs from draw_sample", fable.cli, "draw_samples",
                             shifted)
        load_model = fable.cli.load_model
        self.assert_rejected(workload, "differs from draw_sample", fable.cli, "load_model",
                             lambda path: scaled_mu(load_model(path)))


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self) -> None:
        def span(i, parent, name, start, end):
            return {"id": i, "parent": parent, "name": name, "start": start, "end": end, "pass": 0}

        record = {"counts": {}, "spans": [
            span(1, None, "sampler.sample_entry_stats", 0.0, 10.0),
            span(2, 1, "sampler.draw_sample", 1.0, 4.0),
            span(3, 1, "sampler.draw_sample", 2.0, 5.0),  # another pool thread
            span(4, 1, "sampler.draw_sample", 7.0, 8.0),
        ]}
        metrics = pass_layer_metrics([record])
        self.assertAlmostEqual(metrics["sampler.sample_entry_stats_self_s"], 10.0 - 5.0)
        self.assertAlmostEqual(metrics["sampler.draw_sample_s"], 7.0 / 3)


if __name__ == "__main__":
    unittest.main(verbosity=2)

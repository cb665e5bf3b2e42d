"""Golden bytes of every CSV table and JSON document fable writes.

Each writer runs on a tiny fixed input holding edge values (nan, +-inf,
-0.0, the smallest subnormal, 0.1 + 0.2, 1e16, a comma in an error
string), and the exact text is compared. The rules pinned here: a float
cell is its ``repr``, any other cell its ``str``, cells are joined by
commas with one line per row; a JSON document has sorted keys, an indent
of 2 and a trailing newline.
"""

import math

import numpy as np
import pytest

import fable.cli
from fable.cli import main
from fable.inference import IntervalGrid
from fable.io import (
    RunManifest,
    save_manifest,
    save_matrix,
    save_samples,
    write_benchmark_table,
    write_config_summaries,
    write_intervals,
    write_metric_records,
)
from fable.sampler import CovarianceSample
from fable.simharness import BenchmarkRow, ConfigSummary, MetricRecord

NAN, INF = math.nan, math.inf
TINY = 5e-324
SUM = 0.1 + 0.2


def test_intervals(tmp_path):
    grid = IntervalGrid(
        u=[0, 0, 1], v=[0, 1, 1],
        center=[NAN, -0.0, SUM],
        lower=[-INF, -0.0, TINY],
        upper=[INF, 0.0, 1e16],
        asym_sd=[NAN, TINY, 1e16],
        alpha=0.05, method="asymptotic",
    )
    write_intervals(tmp_path / "i.csv", grid)
    assert (tmp_path / "i.csv").read_text() == (
        "u,v,center,lower,upper,asym_sd,method\n"
        "0,0,nan,-inf,inf,nan,asymptotic\n"
        "0,1,-0.0,-0.0,0.0,5e-324,asymptotic\n"
        "1,1,0.30000000000000004,5e-324,1e+16,1e+16,asymptotic\n"
    )


def test_metric_records(tmp_path):
    records = [
        MetricRecord("n20_p5_k1", 1, NAN, SUM, -0.0, 1e16, TINY, "ShapeError: bad, worse"),
        MetricRecord("n20_p5_k1", 2, INF, 1.0, 0.5, 0.25, 0.0),
    ]
    write_metric_records(tmp_path / "r.csv", records)
    assert (tmp_path / "r.csv").read_text() == (
        "config_id,replicate,rel_error,coverage,mean_width,"
        "fit_seconds,sample_seconds,error\n"
        "n20_p5_k1,1,nan,0.30000000000000004,-0.0,1e+16,5e-324,ShapeError: bad; worse\n"
        "n20_p5_k1,2,inf,1.0,0.5,0.25,0.0,\n"
    )


def test_config_summaries(tmp_path):
    # the study harness hands numpy float64 values to this writer
    summary = ConfigSummary("n20_p5_k1", 20, 5, 1, 2, 0, np.float64(SUM), NAN, -0.0, INF,
                            np.float64(TINY))
    write_config_summaries(tmp_path / "s.csv", [summary])
    assert (tmp_path / "s.csv").read_text() == (
        "config_id,n,p,k_true,replicates_done,failures,mean_rel_error,"
        "median_rel_error,mean_coverage,median_coverage,mean_width\n"
        "n20_p5_k1,20,5,1,2,0,0.30000000000000004,nan,-0.0,inf,5e-324\n"
    )


def test_benchmark_table(tmp_path):
    rows = [BenchmarkRow(20, 5, 3, 1e16, INF, NAN), BenchmarkRow(20, 10, 3, 1.0, 100.0, 0.001)]
    write_benchmark_table(tmp_path / "b.csv", rows)
    assert (tmp_path / "b.csv").read_text() == (
        "n,p,n_samples,fit_seconds,sample_seconds,mean_seconds,"
        "log10_fit_seconds,log10_sample_seconds,log10_mean_seconds\n"
        "20,5,3,1e+16,inf,nan,16.0,inf,nan\n"
        "20,10,3,1.0,100.0,0.001,0.0,2.0,-3.0\n"
    )


def test_text_sample_stream(tmp_path):
    draws = [
        CovarianceSample(7, np.array([[NAN, -0.0], [TINY, 1e16]]), np.array([SUM, INF])),
        CovarianceSample(2**64 - 1, np.array([[-INF]]), np.array([0.0])),
    ]
    assert save_samples(tmp_path / "s.txt", draws, format="text") == 2
    assert (tmp_path / "s.txt").read_text() == (
        "7,2,2\n"
        "nan,-0.0\n"
        "5e-324,1e+16\n"
        "0.30000000000000004,inf\n"
        "18446744073709551615,1,1\n"
        "-inf\n"
        "0.0\n"
    )


def test_empty_text_sample_stream(tmp_path):
    assert save_samples(tmp_path / "s.txt", [], format="text") == 0
    assert (tmp_path / "s.txt").read_bytes() == b""


def test_manifest(tmp_path):
    manifest = RunManifest(
        command="fit",
        config={"argv": ["fit", "--input", "a,b.csv"]},
        software_version="0.4.0",
        inputs={"input": {"path": "a,b.csv", "sha256": "ab"}},
        resolved={"tau_sq": SUM, "rho": 1e16, "k": 2, "z": -0.0, "tiny": TINY,
                  "bad": NAN, "big": INF},
        outputs={"model": {"path": "m.bin", "sha256": "cd"}},
        created_unix=1.5,
        openblas_num_threads="",
    )
    save_manifest(tmp_path / "m.json", manifest)
    assert (tmp_path / "m.json").read_text() == """\
{
  "command": "fit",
  "config": {
    "argv": [
      "fit",
      "--input",
      "a,b.csv"
    ]
  },
  "created_unix": 1.5,
  "inputs": {
    "input": {
      "path": "a,b.csv",
      "sha256": "ab"
    }
  },
  "measured": {},
  "openblas_num_threads": "",
  "outputs": {
    "model": {
      "path": "m.bin",
      "sha256": "cd"
    }
  },
  "resolved": {
    "bad": NaN,
    "big": Infinity,
    "k": 2,
    "rho": 1e+16,
    "tau_sq": 0.30000000000000004,
    "tiny": 5e-324,
    "z": -0.0
  },
  "seed": null,
  "software_version": "0.4.0"
}
"""


@pytest.fixture
def fitted(tmp_path):
    """A 12 x 5 text matrix whose three widest columns are 1, 3 and 4,
    fitted at rank 1 on those columns, plus a 4-row test matrix."""
    rng = np.random.default_rng(15)
    y = rng.standard_normal((16, 5)) * np.array([1.0, 10.0, 0.1, 5.0, 3.0])
    train, test = tmp_path / "train.csv", tmp_path / "test.mat"
    train.write_text("".join(",".join(map(repr, row)) + "\n" for row in y[:12].tolist()))
    save_matrix(test, y[12:])
    model, columns = tmp_path / "model.bin", tmp_path / "columns.txt"
    assert main(["fit", "--input", str(train), "--filter-fraction", "0.6", "--k", "1",
                 "--output", str(model), "--output-columns", str(columns)]) == 0
    return {"train": train, "test": test, "model": model, "columns": columns}


def test_output_columns(fitted):
    assert fitted["columns"].read_text() == "1\n3\n4\n"


def test_dense_mean(fitted, tmp_path, monkeypatch):
    values = np.array([NAN, -0.0, TINY, 1e16, INF, SUM])

    def edge_means(model, *, form, indices):
        return values[: len(indices)]

    monkeypatch.setattr(fable.cli, "posterior_mean", edge_means)
    out = tmp_path / "mean.csv"
    assert main(["mean", "--model", str(fitted["model"]), "--form", "dense_entrywise",
                 "--indices", "0,2", "--output", str(out)]) == 0
    assert out.read_text() == "u,v,mean\n0,0,nan\n0,2,-0.0\n2,2,5e-324\n"


@pytest.mark.parametrize("to_file", [False, True])
def test_diagnose_report(fitted, tmp_path, monkeypatch, capsys, to_file):
    monkeypatch.setattr(fable.cli, "fitted_loglik", lambda model, dm: -0.0)
    monkeypatch.setattr(fable.cli, "variance_explained", lambda model: np.array([TINY]))
    monkeypatch.setattr(fable.cli, "predictive_coverage", lambda model, dm, alpha: NAN)
    out = tmp_path / "report.json"
    argv = ["diagnose", "--model", str(fitted["model"]), "--input", str(fitted["train"]),
            "--filter-fraction", "0.6", "--alpha", repr(SUM)]
    assert main(argv + (["--output", str(out)] if to_file else [])) == 0
    stdout = capsys.readouterr().out
    assert (out.read_text() if to_file else stdout) == """\
{
  "alpha": 0.30000000000000004,
  "fitted_loglik": -0.0,
  "k": 1,
  "n": 12,
  "p": 3,
  "predictive_coverage": NaN,
  "variance_explained_mean": 5e-324,
  "variance_explained_median": 5e-324
}
"""
    if to_file:
        assert stdout == ""


@pytest.mark.parametrize("to_file", [False, True])
def test_oos_report(fitted, tmp_path, monkeypatch, capsys, to_file):
    monkeypatch.setattr(fable.cli, "oos_loglik", lambda *args, **kwargs: -INF)
    out = tmp_path / "report.json"
    argv = ["oos", "--input", str(fitted["train"]), "--test", str(fitted["test"]),
            "--filter-fraction", "0.6", "--k", "1", "--targets", "0", "--extras", "1,2"]
    assert main(argv + (["--output", str(out)] if to_file else [])) == 0
    stdout = capsys.readouterr().out
    assert (out.read_text() if to_file else stdout) == """\
{
  "extras": 2,
  "n_test": 4,
  "n_train": 12,
  "oos_loglik": -Infinity,
  "targets": 1
}
"""
    if to_file:
        assert stdout == ""

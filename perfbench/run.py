"""Layered benchmark for fable: run one workload and print its metrics.

    python3 perfbench/run.py --workload expr_text --seed 1 --seconds 15 --trace 0

Run from the root of a fable checkout; fable is imported from ./src and
is not installed. With ``--trace 0`` every command runs as
``python -m fable.cli ...`` and the last line of output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the same commands run
through perfbench/tracing.py and the metrics are the per-layer ones.
Inputs, outputs and span files live in .bench_work/ and are removed when
the run ends. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the closed loop runs one command at a
# time, and a second OpenBLAS thread competing for a busy core made the
# 500 x 5000 SVD ten times slower on the 2-core machine measured.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import CheckFailed  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent


class CommandFailed(Exception):
    pass


class Runner:
    """Runs fable commands one at a time as separate processes and keeps
    the largest resident set any of them reached."""

    def __init__(self, root: Path, workdir: Path, span_dir: Path | None = None) -> None:
        self.workdir, self.span_dir = workdir, span_dir
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.env.pop("FABLE_THREADS", None)
        self.peak_rss_mb = 0.0
        self.commands = 0

    def fable(self, argv: list[str], pass_id: int | None = None) -> float:
        """Run one command; return its wall time in seconds."""
        if self.span_dir is not None and pass_id is not None:
            spans = self.span_dir / f"pass{pass_id}-{self.commands}.json"
            cmd = [sys.executable, str(HERE / "tracing.py"), "--spans", str(spans),
                   "--pass", str(pass_id), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "fable.cli", *argv]
        self.commands += 1
        log = self.workdir / "command.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            raise CommandFailed(f"fable {' '.join(argv[:1])} exited {proc.returncode}: "
                                f"{log.read_text(errors='replace')[-2000:]}")
        return wall


def measure(workload, runner: Runner, workdir: Path, seconds: float, setups: int) -> dict:
    """Set up ``setups`` times, then run whole passes on the last set-up
    until ``seconds`` have passed and at least ``workload.min_passes`` ran."""
    setup_infos, setup_times = [], []
    for i in range(setups):
        target = workdir / f"setup{i}"
        target.mkdir(parents=True)
        runner.workdir = target
        start = time.perf_counter()
        setup_infos.append(workload.setup(runner, target))
        setup_times.append(time.perf_counter() - start)
        if i + 1 < setups:
            shutil.rmtree(target)
    passes = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(runner, len(passes)))
    return {"setups": setup_infos, "setup_times": setup_times, "passes": passes}


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, workdir: Path) -> dict:
    workload = WORKLOADS[name](seed)
    span_dir = workdir / "spans" if trace else None
    runner = Runner(root, workdir, span_dir)
    if span_dir is not None:
        span_dir.mkdir(parents=True)
    result = measure(workload, runner, workdir, seconds, 1 if trace else workload.setups)
    attempted = len(result["passes"]) * workload.commands_per_pass
    try:
        workload.check(result["passes"])
        correct = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if trace:
        values = layer_metrics(sorted(span_dir.glob("pass*.json")))
        imports = [runner.fable(["--version"]) for _ in range(3)]
        values = {"cli.import_s": statistics.median(imports), **values}
        walls = [p["pass_s"] for p in result["passes"]]
        print(f"traced pass_s median {statistics.median(walls):.4f} over {len(walls)} passes")
    else:
        values = {
            "setup_s": statistics.median(result["setup_times"]),
            "peak_rss_mb": runner.peak_rss_mb,
            **workload.metrics(result["setups"], result["passes"]),
        }
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fable" / "cli.py").is_file():
        print(f"{root}: no fable sources at src/fable; run from a fable checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root, workdir)
    except CommandFailed as exc:
        print(f"command failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

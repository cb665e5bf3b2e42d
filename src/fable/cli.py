"""Command-line pipeline: fit, sample, mean, intervals, diagnose, oos,
simulate, bench, and manifest replay.

Every run that writes files can record a manifest (fit always does);
`replay` reruns the recorded command and verifies the outputs hash to
the recorded values. Failures print one machine-readable JSON record to
stderr and exit 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DimensionMismatch,
    FableError,
    IndexOutOfRange,
    InvalidOption,
    OutOfMemory,
    ParseError,
    ReplayMismatch,
)
from .inference import (
    credible_intervals,
    fitted_loglik,
    oos_loglik,
    predictive_coverage,
    variance_explained,
)
from .io import (
    RunManifest,
    _transformed,
    _write_json,
    _write_table,
    file_sha256,
    load_manifest,
    load_matrix,
    load_model,
    preprocess,
    save_manifest,
    save_matrix,
    save_model,
    save_samples,
    write_benchmark_table,
    write_config_summaries,
    write_intervals,
    write_metric_records,
)
from .linalg import DataMatrix
from .model import RHO_STRATEGIES, fit
from .sampler import RngSpec, _cpu_count, _upper_pairs, draw_samples, posterior_mean
from .simharness import SimulationConfig, run_study, runtime_benchmark

# the four (n, p) cells of the headline study, all at rank 10
PAPER_TABLE1_CELLS = ((500, 1000), (1000, 1000), (500, 5000), (1000, 5000))


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidOption(f"{what} must be an integer, got {text!r}") from None


def _default_threads() -> int:
    env = os.environ.get("FABLE_THREADS", "")
    return _parse_int(env, "FABLE_THREADS") if env.strip() else _cpu_count()


def parse_indices(text: str, p: int) -> list[int]:
    """Parse "0,5,10-12" into [0, 5, 10, 11, 12], every index in [0, p).

    A range is checked against p before it is expanded, so an index set
    that names more variables than the model has is refused without
    being built.
    """
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = _parse_int(lo_s, "an index"), _parse_int(hi_s, "an index")
            if hi < lo:
                raise InvalidOption(f"decreasing range {part!r}")
        else:
            lo = hi = _parse_int(part, "an index")
        if not 0 <= lo < p:
            raise IndexOutOfRange(f"index {lo} outside [0, {p})")
        if hi >= p:
            raise IndexOutOfRange(f"index {p} outside [0, {p})")
        out.extend(range(lo, hi + 1))
    if not out:
        raise InvalidOption(f"no indices in {text!r}")
    return out


def _parse_p_grid(text: str) -> list[int]:
    """Either "500:5000:500" (inclusive stop) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidOption(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (_parse_int(x, "a grid bound") for x in parts)
        if step <= 0 or stop < start:
            raise InvalidOption(f"bad grid bounds {text!r}")
        return list(range(start, stop + 1, step))
    sizes = [_parse_int(x, "a grid size") for x in text.split(",") if x.strip()]
    if not sizes:
        raise InvalidOption(f"no grid sizes in {text!r}")
    return sizes


def _add_pipeline_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="matrix file (text or FABLEMAT1)")
    sub.add_argument(
        "--format",
        choices=("auto", "delimited_text", "raw_binary"),
        default="auto",
    )
    sub.add_argument(
        "--transform", choices=("none", "log2_plus_one"), default="none"
    )
    sub.add_argument(
        "--filter-fraction",
        type=float,
        default=1.0,
        metavar="F",
        help="keep the top ceil(F * p) columns by variance",
    )


def _add_fit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, default=None, help="factor count; default selects by information criterion")
    sub.add_argument("--S0", type=float, default=0.75, dest="s0",
                     help="cumulative spectrum fraction bounding the rank grid")
    sub.add_argument("--gamma0", type=float, default=1.0)
    sub.add_argument("--delta0-sq", type=float, default=1.0)
    sub.add_argument("--tau-sq", type=float, default=None,
                     help="prior loading scale; default is moment-matched")
    sub.add_argument("--rho-strategy", choices=RHO_STRATEGIES, default="mean_b")
    sub.add_argument("--alpha", type=float, default=0.05)


def _fit_options(args) -> dict:
    return {
        "k": args.k,
        "S0": args.s0,
        "gamma0": args.gamma0,
        "delta0_sq": args.delta0_sq,
        "tau_sq": args.tau_sq,
        "rho_strategy": args.rho_strategy,
        "coverage_alpha": args.alpha,
    }


def _load_and_preprocess(args) -> tuple[DataMatrix, np.ndarray, str]:
    loaded = load_matrix(args.input, format=args.format)
    dm, kept = preprocess(
        loaded.values,
        transform=args.transform,
        filter_top_variance_fraction=args.filter_fraction,
    )
    return dm, kept, file_sha256(args.input)


def _save_manifest(
    args, path: str | None, outputs: dict, *, measured: dict | None = None, **fields
) -> None:
    """Write the manifest of this run to ``path`` (nothing when it is None).

    ``outputs`` and ``measured`` map roles to written files (None entries
    are skipped); ``fields`` are the other RunManifest fields (seed,
    input_sha256, resolved).
    """
    if path is None:
        return

    def hashed(entries):
        return {
            role: {"path": str(out), "sha256": file_sha256(out)}
            for role, out in entries.items()
            if out is not None
        }

    save_manifest(path, RunManifest(
        command=args.command,
        config={"argv": list(args._argv)},
        software_version=__version__,
        outputs=hashed(outputs),
        measured=hashed(measured or {}),
        created_unix=time.time(),
        openblas_num_threads=os.environ.get("OPENBLAS_NUM_THREADS", ""),
        **fields,
    ))


def _index_pairs(text: str, p: int) -> np.ndarray:
    """The (m, 2) entries (u, v), v at or after u in the list, of the index
    set ``text``; every index is checked against p before any is made."""
    return _upper_pairs(parse_indices(text, p))


def _cmd_fit(args) -> int:
    dm, kept, checksum = _load_and_preprocess(args)
    model = fit(dm, **_fit_options(args))
    save_model(args.output, model)
    if args.output_columns is not None:
        _write_table(args.output_columns, zip(kept.tolist()))  # one index a line
    resolved = {
        "k": model.k,
        "tau_sq": model.tau_sq,
        "rho": model.rho,
        "gamma_n": model.gamma_n,
        "columns_kept": int(len(kept)),
    }
    _save_manifest(
        args, args.manifest or args.output + ".manifest.json",
        {"model": args.output, "columns": args.output_columns},
        input_sha256=checksum, resolved=resolved,
    )
    print(f"fit: k={model.k} tau_sq={model.tau_sq:.6g} rho={model.rho:.6g} "
          f"-> {args.output}")
    return 0


def _cmd_sample(args) -> int:
    model = load_model(args.model)
    if args.rho is not None:
        model = dataclasses.replace(model, rho=args.rho)
    draws = draw_samples(
        model, args.n_samples, RngSpec(args.seed), threads=args.threads, start=args.start
    )
    count = save_samples(args.output, draws, format=args.sample_format)
    _save_manifest(
        args, args.manifest, {"samples": args.output}, seed=args.seed,
        resolved={"n_samples": count, "rho": model.rho},
    )
    print(f"sample: {count} draws -> {args.output}")
    return 0


def _cmd_mean(args) -> int:
    model = load_model(args.model)
    if args.form == "factored":
        est = posterior_mean(model)
        save_matrix(args.output_loadings, est.loadings)
        save_matrix(args.output_noise, est.diag.reshape(1, -1))
        written = {"loadings": args.output_loadings, "noise": args.output_noise}
        print(f"mean: factored ({model.p}x{model.k} + diagonal) -> "
              f"{args.output_loadings}, {args.output_noise}")
    else:
        pairs = _index_pairs(args.indices, model.p)
        entries = posterior_mean(model, form="dense_entrywise", indices=pairs)
        _write_table(args.output, chain(
            [("u", "v", "mean")], zip(*pairs.T.tolist(), entries.tolist())
        ))
        written = {"entries": args.output}
        print(f"mean: {len(pairs)} entrywise means -> {args.output}")
    _save_manifest(args, args.manifest, written, resolved={"form": args.form})
    return 0


def _cmd_intervals(args) -> int:
    model = load_model(args.model)
    pairs = _index_pairs(args.indices, model.p)
    rng = None if args.seed is None else RngSpec(args.seed)
    grid = credible_intervals(
        model,
        pairs,
        alpha=args.alpha,
        method=args.method,
        n_samples=args.n_samples,
        rng=rng,
        threads=args.threads,
    )
    write_intervals(args.output, grid)
    _save_manifest(
        args, args.manifest, {"intervals": args.output}, seed=args.seed,
        resolved={"method": args.method, "alpha": args.alpha, "pairs": len(pairs)},
    )
    print(f"intervals: {len(pairs)} entries ({args.method}) -> {args.output}")
    return 0


def _cmd_diagnose(args) -> int:
    model = load_model(args.model)
    dm, kept, checksum = _load_and_preprocess(args)
    pve = variance_explained(model)
    result = {
        "fitted_loglik": float(fitted_loglik(model, dm)),
        "variance_explained_mean": float(pve.mean()),
        "variance_explained_median": float(np.median(pve)),
        "predictive_coverage": float(predictive_coverage(model, dm, alpha=args.alpha)),
        "alpha": args.alpha,
        "n": dm.n,
        "p": dm.p,
        "k": model.k,
    }
    _write_json(args.output, result)
    keys = ("fitted_loglik", "variance_explained_mean", "predictive_coverage")
    _save_manifest(
        args, args.manifest, {"report": args.output}, input_sha256=checksum,
        resolved={key: result[key] for key in keys},
    )
    return 0


def _cmd_oos(args) -> int:
    train_loaded = load_matrix(args.input, format=args.format)
    test_loaded = load_matrix(args.test, format=args.format)
    if test_loaded.values.shape[1] != train_loaded.values.shape[1]:
        raise DimensionMismatch(
            f"train and test column counts differ "
            f"({train_loaded.values.shape[1]} vs {test_loaded.values.shape[1]})"
        )
    train_dm, kept = preprocess(
        train_loaded.values,
        transform=args.transform,
        filter_top_variance_fraction=args.filter_fraction,
    )
    checksum = file_sha256(args.input)
    # the test rows get the train-chosen transform and columns; target
    # indices refer to post-filter positions
    test_all = _transformed(test_loaded.values, args.transform)
    targets = parse_indices(args.targets, train_dm.p)
    extras = parse_indices(args.extras, train_dm.p) if args.extras else []
    test_rows = test_all[:, kept[targets]]
    value = oos_loglik(train_dm, test_rows, targets, extras, **_fit_options(args))
    result = {
        "oos_loglik": value,
        "targets": len(targets),
        "extras": len(extras),
        "n_train": train_dm.n,
        "n_test": test_rows.shape[0],
    }
    _write_json(args.output, result)
    _save_manifest(
        args, args.manifest, {"report": args.output}, input_sha256=checksum,
        resolved={"oos_loglik": value},
    )
    return 0


def _simulate_configs(args) -> list[SimulationConfig]:
    common = dict(
        k_true=args.k,
        replicates=args.replicates,
        seed=args.seed,
        tracked=args.tracked,
        alpha=args.alpha,
        interval_method=args.interval_method,
        n_samples=args.n_samples,
    )
    if args.preset == "paper-table1":
        return [SimulationConfig(n=n, p=p, **common) for n, p in PAPER_TABLE1_CELLS]
    if args.n is None or args.p is None:
        raise InvalidOption("simulate needs either --preset or both --n and --p")
    return [SimulationConfig(n=args.n, p=args.p, **common)]


def _cmd_simulate(args) -> int:
    configs = _simulate_configs(args)
    result = run_study(configs, threads=args.threads)
    if args.output_records is not None:
        write_metric_records(args.output_records, result.records)
    if args.output_summaries is not None:
        write_config_summaries(args.output_summaries, result.summaries)
    header = (
        f"{'config':>18} {'reps':>5} {'fail':>5} {'rel_err':>8} "
        f"{'coverage':>9} {'width':>7}"
    )
    print(header)
    for s in result.summaries:
        print(
            f"{s.config_id:>18} {s.replicates_done:>5} {s.failures:>5} "
            f"{s.mean_rel_error:>8.3f} {s.mean_coverage:>9.3f} {s.mean_width:>7.3f}"
        )
    # per-replicate records embed wall-clock timings, so they are
    # measured files; summaries hold only deterministic aggregates
    _save_manifest(
        args, args.manifest, {"summaries": args.output_summaries},
        measured={"records": args.output_records}, seed=args.seed,
        resolved={
            s.config_id: {
                "mean_rel_error": s.mean_rel_error,
                "mean_coverage": s.mean_coverage,
                "mean_width": s.mean_width,
                "failures": s.failures,
            }
            for s in result.summaries
        },
    )
    return 0


def _cmd_bench(args) -> int:
    grid = _parse_p_grid(args.p_grid)
    rows = runtime_benchmark(
        grid,
        n=args.n,
        k_true=args.k,
        n_samples=args.n_samples,
        repeats=args.repeats,
        seed=args.seed,
    )
    if args.output is not None:
        write_benchmark_table(args.output, rows)
    print(f"{'p':>6} {'fit_s':>10} {'sample_s':>10} {'mean_s':>10}")
    for row in rows:
        print(
            f"{row.p:>6} {row.fit_seconds:>10.4f} {row.sample_seconds:>10.4f} "
            f"{row.mean_seconds:>10.4f}"
        )
    _save_manifest(args, args.manifest, {}, measured={"table": args.output}, seed=args.seed)
    return 0


def _run_setting(version: str, blas_threads: str | None) -> str:
    """What a run's bytes depend on besides its inputs and options."""
    if blas_threads is None:
        threads = "OPENBLAS_NUM_THREADS not recorded"
    else:
        threads = f"OPENBLAS_NUM_THREADS={blas_threads or 'unset'}"
    return f"fable {version}, {threads}"


def _recorded_manifest(argv: list[str]) -> str | None:
    """The ``--manifest`` path a recorded argv names, if any."""
    try:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            return getattr(build_parser().parse_args(argv), "manifest", None)
    except SystemExit:
        return None  # the replayed run reports the usage error itself


def _replay_paths(paths: list[str], outdir: Path) -> dict[str, str]:
    """Map each distinct recorded path to its own file under ``outdir``:
    its file name where no other path has that name, else the first free
    numbered one, as "1-out.bin" and "2-out.bin"."""
    names = {path: Path(path).name for path in paths}
    counts = Counter(names.values())
    taken = {name for name, n in counts.items() if n == 1}
    for path, name in names.items():
        if counts[name] > 1:  # of len(names) + 1 numbers, one is free
            free = (f"{i}-{name}" for i in range(1, len(names) + 2))
            names[path] = next(new for new in free if new not in taken)
            taken.add(names[path])
    return {path: str(outdir / name) for path, name in names.items()}


def _cmd_replay(args) -> int:
    manifest = load_manifest(args.manifest)
    argv = list(manifest.config.get("argv", []))
    if not argv:
        raise ParseError(f"{args.manifest}: manifest records no argv to replay")
    if argv[0] == "replay":
        raise ParseError(f"{args.manifest}: manifest argv runs replay, which would not end")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = [record["path"] for record in {**manifest.outputs, **manifest.measured}.values()]
    # the replayed run's own manifest goes under outdir too, so the
    # recorded one is not overwritten
    if recorded := _recorded_manifest(argv):
        written.append(recorded)
    mapping = _replay_paths(written, outdir)

    def mapped(arg: str) -> str:
        option, eq, value = arg.partition("=")
        if eq and option.startswith("--") and value in mapping:
            return f"{option}={mapping[value]}"
        return mapping.get(arg, arg)

    new_argv = [mapped(arg) for arg in argv]
    code = main(new_argv)
    if code != 0:
        return code
    mismatched = []
    for role, record in manifest.outputs.items():
        replayed = mapping[record["path"]]
        if file_sha256(replayed) != record["sha256"]:
            mismatched.append(role)
    if mismatched:
        recorded = _run_setting(manifest.software_version, manifest.openblas_num_threads)
        here = _run_setting(__version__, os.environ.get("OPENBLAS_NUM_THREADS", ""))
        raise ReplayMismatch(
            f"replay outputs differ from manifest for: {', '.join(sorted(mismatched))} "
            f"(recorded with {recorded}; replayed with {here})"
        )
    missing = [
        role
        for role, record in manifest.measured.items()
        if not Path(mapping[record["path"]]).exists()
    ]
    if missing:
        raise ReplayMismatch(
            f"replay did not rewrite measured file(s): {', '.join(sorted(missing))}"
        )
    print(
        f"replay: {manifest.command} reproduced {len(manifest.outputs)} "
        f"output(s) bit-identically"
        + (f", rewrote {len(manifest.measured)} measured file(s)" if manifest.measured else "")
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fable",
        description="Factor-based covariance estimation with sampling-light "
        "uncertainty quantification.",
    )
    parser.add_argument("--version", action="version", version=f"fable {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="fit a model and write its artifact")
    _add_pipeline_flags(p_fit)
    _add_fit_flags(p_fit)
    p_fit.add_argument("--output", required=True, help="model artifact path")
    p_fit.add_argument("--output-columns", default=None,
                       help="write kept column indices, one per line")
    p_fit.add_argument("--manifest", default=None,
                       help="manifest path (default: <output>.manifest.json)")
    p_fit.set_defaults(func=_cmd_fit)

    p_sample = subs.add_parser("sample", help="draw posterior covariance samples")
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--n-samples", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True,
                          help="sampling is never seeded from the clock")
    p_sample.add_argument("--rho", type=float, default=None,
                          help="override the model's variance inflation")
    p_sample.add_argument("--start", type=int, default=1,
                          help="index of the first draw")
    p_sample.add_argument("--threads", type=int, default=None)
    p_sample.add_argument("--sample-format", choices=("binary", "text"),
                          default="binary")
    p_sample.add_argument("--output", required=True)
    p_sample.add_argument("--manifest", default=None)
    p_sample.set_defaults(func=_cmd_sample)

    p_mean = subs.add_parser("mean", help="posterior mean of the covariance")
    p_mean.add_argument("--model", required=True)
    p_mean.add_argument("--form", choices=("factored", "dense_entrywise"),
                        default="factored")
    p_mean.add_argument("--output-loadings", default=None,
                        help="factored form: loadings matrix file")
    p_mean.add_argument("--output-noise", default=None,
                        help="factored form: noise variance file")
    p_mean.add_argument("--indices", default=None,
                        help="dense form: index set, e.g. 0,5,10-12")
    p_mean.add_argument("--output", default=None,
                        help="dense form: entrywise CSV path")
    p_mean.add_argument("--manifest", default=None)
    p_mean.set_defaults(func=_cmd_mean)

    p_int = subs.add_parser("intervals", help="entrywise credible intervals")
    p_int.add_argument("--model", required=True)
    p_int.add_argument("--indices", required=True,
                       help="index set; intervals cover all its pairs")
    p_int.add_argument("--alpha", type=float, default=0.05)
    p_int.add_argument("--method", choices=("asymptotic", "sample_quantile"),
                       default="asymptotic")
    p_int.add_argument("--n-samples", type=int, default=None)
    p_int.add_argument("--seed", type=int, default=None,
                       help="required for sample_quantile")
    p_int.add_argument("--threads", type=int, default=None)
    p_int.add_argument("--output", required=True)
    p_int.add_argument("--manifest", default=None)
    p_int.set_defaults(func=_cmd_intervals)

    p_diag = subs.add_parser("diagnose", help="fit quality diagnostics")
    p_diag.add_argument("--model", required=True)
    _add_pipeline_flags(p_diag)
    p_diag.add_argument("--alpha", type=float, default=0.05)
    p_diag.add_argument("--output", default=None, help="default: stdout")
    p_diag.add_argument("--manifest", default=None)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_oos = subs.add_parser("oos", help="out-of-sample log-likelihood")
    _add_pipeline_flags(p_oos)
    _add_fit_flags(p_oos)
    p_oos.add_argument("--test", required=True, help="held-out rows, same columns")
    p_oos.add_argument("--targets", required=True,
                       help="scored columns (post-filter indices)")
    p_oos.add_argument("--extras", default=None,
                       help="extra columns that sharpen the factors")
    p_oos.add_argument("--output", default=None, help="default: stdout")
    p_oos.add_argument("--manifest", default=None)
    p_oos.set_defaults(func=_cmd_oos)

    p_sim = subs.add_parser("simulate", help="synthetic-truth study")
    p_sim.add_argument("--preset", choices=("paper-table1",), default=None,
                       help="bundled four-cell (n, p) study grid")
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--p", type=int, default=None)
    p_sim.add_argument("--k", type=int, default=10)
    p_sim.add_argument("--replicates", type=int, default=100)
    p_sim.add_argument("--seed", type=int, required=True,
                       help="studies are never seeded from the clock")
    p_sim.add_argument("--tracked", type=int, default=100)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--interval-method",
                       choices=("asymptotic", "sample_quantile"),
                       default="asymptotic")
    p_sim.add_argument("--n-samples", type=int, default=1000)
    p_sim.add_argument("--threads", type=int, default=None)
    p_sim.add_argument("--output-records", default=None)
    p_sim.add_argument("--output-summaries", default=None)
    p_sim.add_argument("--manifest", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = subs.add_parser("bench", help="runtime scaling table")
    p_bench.add_argument("--p-grid", required=True,
                         help="comma list or start:stop:step (inclusive)")
    p_bench.add_argument("--n", type=int, default=500)
    p_bench.add_argument("--k", type=int, default=10)
    p_bench.add_argument("--n-samples", type=int, default=1000)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output", default=None)
    p_bench.add_argument("--manifest", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_replay = subs.add_parser("replay", help="rerun a manifest and verify outputs")
    p_replay.add_argument("--manifest", required=True)
    p_replay.add_argument("--outdir", required=True,
                          help="directory for the replayed outputs")
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def _validate(args) -> None:
    if hasattr(args, "threads"):
        option = "--threads"
        if args.threads is None:
            args.threads, option = _default_threads(), "FABLE_THREADS"
        if args.threads < 1:
            raise InvalidOption(f"{option} must be at least 1, got {args.threads}")
    if getattr(args, "command", None) == "mean":
        if args.form == "factored":
            if args.output_loadings is None or args.output_noise is None:
                raise InvalidOption(
                    "factored mean needs --output-loadings and --output-noise"
                )
        else:
            if args.indices is None or args.output is None:
                raise InvalidOption("dense_entrywise mean needs --indices and --output")
    if getattr(args, "command", None) == "bench" and not args.repeats >= 1:
        raise InvalidOption(f"--repeats must be at least 1, got {args.repeats}")
    if getattr(args, "command", None) == "intervals" and args.method == "sample_quantile":
        if args.seed is None:
            raise InvalidOption("sample_quantile intervals need --seed")
        if args.n_samples is None:
            raise InvalidOption("sample_quantile intervals need --n-samples")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = list(argv)
    # Warnings are held back while the command runs: on failure they go
    # into the JSON error record, so stderr is that one record; otherwise
    # they are shown as usual once the command returns.
    caught: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                _validate(args)
                return args.func(args)
            except (FableError, ValueError, OSError, MemoryError) as exc:
                if isinstance(exc, MemoryError):
                    exc = OutOfMemory(str(exc) or "out of memory")
                record = {"error": type(exc).__name__, "message": str(exc)}
                if caught:
                    record["warnings"] = [
                        {"category": w.category.__name__, "message": str(w.message)}
                        for w in caught
                    ]
                    caught.clear()
                print(json.dumps(record, sort_keys=True), file=sys.stderr)
                return 1
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)


if __name__ == "__main__":
    sys.exit(main())

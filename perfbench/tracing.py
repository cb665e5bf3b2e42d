"""Span tracer for the benchmark's traced run, and the per-layer metrics.

Run as a script, it executes one fable CLI command through
``fable.cli.main`` with wrappers installed around

- the public functions of every fable module, rebound wherever a fable
  module holds a reference to them, so calls made inside ``fit``,
  ``draw_sample`` or ``run_study`` are seen without editing fable;
- the kernels fable reaches through module globals: ``numpy.linalg.svd``
  (counted only when called from fable code), ``gammaincinv`` and
  ``ndtri`` as bound in ``fable.sampler``, and ``RngSpec.uniform_block``.

Each span records its name, start, end, parent span and pass id. Spans
stay in memory and are written as one JSON file when the command ends:

    python3 perfbench/tracing.py --spans OUT.json --pass 0 -- fit --input ...

``layer_metrics`` turns the span files of one pass into the per-layer
metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FABLE_MODULES = ("io", "linalg", "model", "sampler", "inference", "simharness")

_COUNT_LOCK = threading.Lock()


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "fable_bench_span", default=None
        )

    def count(self, name: str, amount: float) -> None:
        # called from sampler pool threads too; the dict update must not race
        with _COUNT_LOCK:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, args, kwargs)``
        may add counts once the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            token = self._current.set(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                self.spans.append(
                    {"id": span_id, "parent": self._current.get(), "name": name,
                     "start": start, "end": end, "pass": self.pass_id}
                )
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(
            {"pass": self.pass_id, "spans": self.spans, "counts": self.counts}
        ))


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so spans made
    in pool threads keep the submitting span as their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap fable's public functions and the kernels it reaches."""
    import numpy as np

    import fable
    import fable.cli

    modules = [importlib.import_module(f"fable.{m}") for m in FABLE_MODULES]
    holders = [fable, fable.cli, *modules]

    def after_load_matrix(result, args, kwargs):
        path = args[0] if args else kwargs["path"]
        with open(path, "rb") as fh:
            is_text = fh.read(9) != b"FABLEMAT1"
        if is_text:
            tracer.count("io.text_bytes", Path(path).stat().st_size)

    def after_save_samples(result, args, kwargs):
        tracer.count("io.sample_bytes", Path(args[0] if args else kwargs["path"]).stat().st_size)

    def after_entry_stats(result, args, kwargs):
        n_samples = args[1] if len(args) > 1 else kwargs["n_samples"]
        pairs = args[3] if len(args) > 3 else kwargs["indices"]
        rows = {int(x) for pair in pairs for x in pair}
        tracer.count("sampler.rows_scored", len(rows) * n_samples)

    after = {
        "io.load_matrix": after_load_matrix,
        "io.save_samples": after_save_samples,
        "sampler.sample_entry_stats": after_entry_stats,
    }
    replaced: dict[int, object] = {}
    for module in modules:
        layer = module.__name__.split(".")[-1]
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if inspect.isfunction(fn) and id(fn) not in replaced:
                full = f"{layer}.{name}"
                wrapped = tracer.wrap(full, fn, after.get(full))
                if full == "io.save_samples":
                    wrapped = _count_streamed_rows(tracer, wrapped)
                if full == "linalg.spectral_norm":
                    wrapped = _count_matvecs(tracer, wrapped)
                replaced[id(fn)] = wrapped
    for holder in holders:
        for name, value in list(vars(holder).items()):
            if id(value) in replaced:
                setattr(holder, name, replaced[id(value)])

    sampler = importlib.import_module("fable.sampler")
    sampler.RngSpec.uniform_block = tracer.wrap(
        "sampler.uniform_block", sampler.RngSpec.uniform_block
    )
    sampler.gammaincinv = tracer.wrap(
        "sampler.gammaincinv", sampler.gammaincinv,
        lambda result, args, kwargs: tracer.count("sampler.rows_transformed", len(args[1])),
    )
    sampler.ndtri = tracer.wrap("sampler.ndtri", sampler.ndtri)
    for module in (sampler, importlib.import_module("fable.simharness")):
        module.ThreadPoolExecutor = _ContextPool

    svd = np.linalg.svd
    traced_svd = tracer.wrap("linalg.svd", svd)

    @functools.wraps(svd)
    def fable_svd(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        return (traced_svd if caller.startswith("fable.") else svd)(*args, **kwargs)

    np.linalg.svd = fable_svd
    fable.cli.main = tracer.wrap("cli.main", fable.cli.main)


def _count_streamed_rows(tracer: Tracer, save_samples):
    """Every row of every draw written to the full stream is a used row."""

    @functools.wraps(save_samples)
    def counted(path, samples, *args, **kwargs):
        def rows(it):
            for sample in it:
                tracer.count("sampler.rows_scored", sample.loadings.shape[0])
                yield sample

        return save_samples(path, rows(samples), *args, **kwargs)

    return counted


def _count_matvecs(tracer: Tracer, spectral_norm):
    """Count operator applications when the operand is a LinearMap."""
    from fable.linalg import LinearMap

    def counting(fn):
        def apply(x):
            tracer.count("linalg.spectral_norm_matvecs", 1)
            return fn(x)

        return apply

    @functools.wraps(spectral_norm)
    def counted(a, *args, **kwargs):
        if isinstance(a, LinearMap):
            a = LinearMap(shape=a.shape, matvec=counting(a.matvec), rmatvec=counting(a.rmatvec))
        return spectral_norm(a, *args, **kwargs)

    return counted


# ----------------------------------------------------------------------
# Per-layer metrics from the span files of one pass.

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class _PassSpans:
    def __init__(self, records: list[dict]) -> None:
        self.counts: dict[str, float] = {}
        self.spans: list[dict] = []
        for proc, rec in enumerate(records):
            for key, val in rec["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + val
            # span ids are per process; key them by (process, id)
            for s in rec["spans"]:
                parent = None if s["parent"] is None else (proc, s["parent"])
                self.spans.append({**s, "id": (proc, s["id"]), "parent": parent})
        self.by_id = {s["id"]: s for s in self.spans}
        self.children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def _outermost(self, name: str) -> list[dict]:
        """Spans named ``name`` not nested inside another span of that name."""
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            parent = self.by_id.get(s["parent"])
            while parent is not None and parent["name"] != name:
                parent = self.by_id.get(parent["parent"])
            if parent is None:
                out.append(s)
        return out

    def total(self, name: str) -> float:
        return float(sum(s["end"] - s["start"] for s in self._outermost(name)))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        total = 0.0
        for s in self.spans:
            if s["name"] != name:
                continue
            kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                    for c in self.children.get(s["id"], ())]
            total += (s["end"] - s["start"]) - _union_length([k for k in kids if k[1] > k[0]])
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pass_layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, before the median over passes."""
    sp = _PassSpans(records)
    c = sp.counts.get
    save_samples_self = sp.self_time("io.save_samples")
    draws = sp.calls("sampler.draw_sample")
    transformed = c("sampler.rows_transformed", 0)
    scored = c("sampler.rows_scored", 0)
    return {
        "io.load_matrix_s": sp.total("io.load_matrix"),
        "io.parse_mb_per_s": _ratio(c("io.text_bytes", 0) / 1e6, sp.total("io.load_matrix")),
        "io.preprocess_s": sp.total("io.preprocess"),
        "io.file_sha256_s": sp.total("io.file_sha256"),
        "io.save_model_s": sp.total("io.save_model"),
        "io.load_model_s": sp.total("io.load_model"),
        "io.write_intervals_s": sp.total("io.write_intervals"),
        "io.save_samples_s": save_samples_self,
        "io.samples_mb_per_s": _ratio(c("io.sample_bytes", 0) / 1e6, save_samples_self),
        "linalg.svd_s": sp.total("linalg.svd"),
        "linalg.svd_calls": sp.calls("linalg.svd"),
        "linalg.center_columns_s": sp.total("linalg.center_columns"),
        "linalg.spectral_norm_s": sp.total("linalg.spectral_norm"),
        "linalg.spectral_norm_matvecs": c("linalg.spectral_norm_matvecs", 0),
        "linalg.gaussian_loglik_s": sp.total("linalg.gaussian_loglik"),
        "model.fit_s": sp.total("model.fit"),
        "model.fit_self_s": sp.self_time("model.fit"),
        "model.compute_rho_s": sp.total("model.compute_rho"),
        "sampler.draw_sample_s": _ratio(sp.total("sampler.draw_sample"), draws),
        "sampler.uniform_block_s": sp.total("sampler.uniform_block"),
        "sampler.gammaincinv_s": sp.total("sampler.gammaincinv"),
        "sampler.ndtri_s": sp.total("sampler.ndtri"),
        "sampler.sample_entry_stats_self_s": sp.self_time("sampler.sample_entry_stats"),
        "sampler.rows_transformed": transformed,
        "sampler.rows_scored": scored,
        "sampler.rows_used_ratio": _ratio(scored, transformed),
        "inference.credible_intervals_self_s": sp.self_time("inference.credible_intervals"),
        "inference.coverage_audit_s": sp.total("inference.coverage_audit"),
        "simharness.generate_data_s": sp.total("simharness.generate_data"),
        "simharness.rel_spectral_error_s": sp.total("simharness.rel_spectral_error"),
    }


def layer_metrics(span_files: list[Path]) -> dict[str, float]:
    """Median over passes of each pass's per-layer metrics."""
    by_pass: dict[int, list[dict]] = {}
    for path in span_files:
        rec = json.loads(Path(path).read_text())
        by_pass.setdefault(rec["pass"], []).append(rec)
    per_pass = [pass_layer_metrics(recs) for _, recs in sorted(by_pass.items())]
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--pass", dest="pass_id", required=True, type=int)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import fable.cli

    tracer = Tracer(args.pass_id)
    install(tracer)
    code = fable.cli.main(command)
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

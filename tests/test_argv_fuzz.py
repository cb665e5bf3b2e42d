"""Property test over the command line: every command, on a tiny matrix
and model, with options drawn from valid values and from hostile ones
(0, negatives, nan, inf, huge integers, empty strings and malformed
index sets).

Whatever the arguments, ``fable`` must not raise: it exits 0, 1 with one
JSON record on stderr naming a :class:`FableError` subclass, or 2 for a
usage error. File paths stay valid, since a path that names no file is
reported as the ``OSError`` of opening it, as in any program. Counts
(draws, replicates, sizes, repeats) draw no huge values: a huge count
asks for that much work, and fable does it.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fable.errors
from fable.cli import main
from fable.io import save_matrix

from test_model import make_factor_data

HUGE = [str(2**64), str(10**30), "1e309"]
NUMBERS = ["0", "-1", "-7", "nan", "inf", "-inf", "", *HUGE]
COUNTS = ["0", "-1", "nan", "inf", "", "2.5"]
INDEX_SETS = ["", ",", "-", "3-", "-2", "4-1", "0--2", "a", "0,,1", "1-2-3", "0-99999999999",
              str(2**70), " ", "0x1", "1.5", "nan", "0-inf", "-0-3"]
# the bench grid is a list of sizes, so it too draws no huge values
GRIDS = ["", ",", "0", "-6", "6,,8", "6:8", "8:6:1", "6:10:0", "6:10:-2", "1:2:3:4", "a",
         "nan", "inf", "2.5", "6-8"]
CHOICES = ["", "nan", "0"]


def hostile(valid, kind):
    """A valid value four times in five, else a hostile one of the
    option's kind, so that most runs get past the other options."""
    pool = {"number": NUMBERS, "count": COUNTS, "indices": INDEX_SETS + NUMBERS,
            "grid": GRIDS, "choice": CHOICES}[kind]
    return st.one_of(*[st.sampled_from(valid)] * 4, st.sampled_from(pool))


# per command: the path arguments, and (flag, valid values, kind) of each
# option that takes another value
FIT_OPTIONS = [
    ("--k", ["2", "1"], "number"),
    ("--S0", ["0.75", "0.9"], "number"),
    ("--gamma0", ["1", "2.5"], "number"),
    ("--delta0-sq", ["1", "0.5"], "number"),
    ("--tau-sq", ["0.5", "2"], "number"),
    ("--filter-fraction", ["1", "0.5"], "number"),
    ("--transform", ["none", "log2_plus_one"], "choice"),
]
# only fit computes a rho
RHO_OPTIONS = [
    ("--rho-strategy", ["mean_b", "max_b", "one"], "choice"),
    ("--alpha", ["0.05", "0.2"], "number"),
]
COMMANDS = {
    "fit": (["--input", "{train}", "--output", "{out}/m.bin"], FIT_OPTIONS + RHO_OPTIONS),
    "sample": (["--model", "{model}", "--output", "{out}/s.bin"], [
        ("--n-samples", ["3", "1"], "count"),
        ("--seed", ["0", "5"], "number"),
        ("--rho", ["0", "0.5"], "number"),
        ("--start", ["1", "4"], "number"),
        ("--threads", ["1", "2"], "number"),
        ("--sample-format", ["binary", "text"], "choice"),
    ]),
    "mean": (["--model", "{model}", "--output-loadings", "{out}/l.txt",
              "--output-noise", "{out}/n.txt", "--output", "{out}/mean.csv"], [
        ("--form", ["factored", "dense_entrywise"], "choice"),
        ("--indices", ["0,2-3", "1"], "indices"),
    ]),
    "intervals": (["--model", "{model}", "--output", "{out}/iv.csv"], [
        ("--indices", ["0-2", "1,3"], "indices"),
        ("--alpha", ["0.05", "0.5"], "number"),
        ("--method", ["asymptotic", "sample_quantile"], "choice"),
        ("--n-samples", ["4", "2"], "count"),
        ("--seed", ["1"], "number"),
        ("--threads", ["1", "2"], "number"),
    ]),
    "diagnose": (["--model", "{model}", "--input", "{train}", "--output", "{out}/d.json"], [
        ("--alpha", ["0.05", "0.3"], "number"),
        ("--filter-fraction", ["1"], "number"),
        ("--transform", ["none"], "choice"),
    ]),
    "oos": (["--input", "{train}", "--test", "{test}", "--output", "{out}/o.json"], [
        ("--targets", ["0-2", "4"], "indices"),
        ("--extras", ["3,5", "1"], "indices"),
        *FIT_OPTIONS,
    ]),
    "simulate": (["--output-summaries", "{out}/sum.csv", "--output-records", "{out}/rec.csv"], [
        ("--n", ["20", "12"], "count"),
        ("--p", ["8", "6"], "count"),
        ("--k", ["2", "1"], "count"),
        ("--replicates", ["1", "2"], "count"),
        ("--seed", ["3"], "number"),
        ("--tracked", ["3", "1"], "count"),
        ("--alpha", ["0.05", "0.5"], "number"),
        ("--interval-method", ["asymptotic", "sample_quantile"], "choice"),
        ("--n-samples", ["4", "2"], "count"),
        ("--threads", ["1", "2"], "number"),
    ]),
    "bench": (["--output", "{out}/b.csv"], [
        ("--p-grid", ["6,8", "6:10:2"], "grid"),
        ("--n", ["20", "12"], "count"),
        ("--k", ["2", "1"], "count"),
        ("--n-samples", ["3", "1"], "count"),
        ("--repeats", ["1"], "count"),
        ("--seed", ["0"], "number"),
    ]),
    "replay": (["--manifest", "{manifest}"], [
        ("--outdir", ["replayed"], "number"),
    ]),
}


# flags always given: those the command requires, and those whose
# default asks for more work than a tiny run (100 replicates, p = 500)
REQUIRED = {
    "sample": {"--n-samples", "--seed"},
    "intervals": {"--indices"},
    "oos": {"--targets"},
    "simulate": {"--n", "--p", "--k", "--replicates", "--seed", "--tracked", "--n-samples"},
    "bench": {"--p-grid", "--n", "--k", "--n-samples", "--repeats"},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 20 x 6 training matrix, 5 held-out rows, a rank-2 model and an
    intervals manifest."""
    root = tmp_path_factory.mktemp("argv")
    _, _, y = make_factor_data(25, 6, 2, seed=97)
    save_matrix(root / "train.mat", y[:20])
    save_matrix(root / "test.mat", y[20:])
    (root / "out").mkdir()
    paths = {"train": root / "train.mat", "test": root / "test.mat",
             "model": root / "model.bin", "manifest": root / "recorded.json",
             "out": root / "out"}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--input", str(paths["train"]), "--k", "2",
                     "--output", str(paths["model"])]) == 0
        assert main(["intervals", "--model", str(paths["model"]), "--indices", "0-2",
                     "--output", str(root / "iv.csv"),
                     "--manifest", str(paths["manifest"])]) == 0
    return {"root": root, **{name: str(path) for name, path in paths.items()}}


@st.composite
def argvs(draw, command):
    required, options = COMMANDS[command]
    argv = [command, *required]
    for flag, valid, kind in options:
        if flag in REQUIRED.get(command, ()) or draw(st.booleans()):
            argv += [flag, draw(hostile(valid, kind))]
    return argv


def run(files, argv):
    """Run one command from inside the fixture's directory, so that a
    relative output directory stays there; the exit code and stderr."""
    argv = [arg.format(**files) for arg in argv]
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(files["root"])
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_argv_ends_in_an_exit_code(files, command, data):
    argv = data.draw(argvs(command), label="argv")
    code, err = run(files, argv)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        name = json.loads(lines[0])["error"]
        error = getattr(fable.errors, name, None)
        assert isinstance(error, type) and issubclass(error, fable.errors.FableError), lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--model", "{model}", "--output", "{out}/s.bin", "--n-samples", "2",
         "--seed", "1", "--threads", str(2**64)],
        ["sample", "--model", "{model}", "--output", "{out}/s.bin", "--n-samples", "2",
         "--seed", "1", "--start", str(2**64)],
        ["intervals", "--model", "{model}", "--output", "{out}/iv.csv", "--indices", "0-1",
         "--method", "sample_quantile", "--n-samples", "3", "--seed", str(2**64),
         "--threads", str(2**64)],
    ],
    ids=["huge-threads", "huge-start", "huge-seed-and-threads"],
)
def test_huge_integers(files, argv):
    code, err = run(files, argv)
    assert code in (0, 1), err
    if code == 1:
        assert issubclass(getattr(fable.errors, json.loads(err)["error"]), fable.errors.FableError)

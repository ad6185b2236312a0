"""Property test of the CLI's fault surface: every command, extreme flag values.

Each case runs ``python -m coxcut`` in a child process with CI's warning
filters and a 2 GiB address-space limit, and checks the exit contract:
exit 0 prints nothing on stderr, exit 1 prints exactly one line starting
``coxcut: error:``, and exit 2 is an argparse usage error. ``ARGV`` holds
one argv strategy per command; test_hygiene checks that it names exactly
the commands of ``cli._COMMANDS``.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxcut
from coxcut.cli import run

INTS = st.sampled_from([-(2**63), -1, 0, 1, 2, 2**63 - 1, 10**30]).map(str)
FLOATS = st.sampled_from([
    "0", "-0", "5e-324", "-5e-324", "1e-308", "1e154", "1e155", "1e308", "-1e308",
    "1.7976931348623157e308", "nan", "inf", "-inf", "1", "-1",
])
FLOAT_PAIRS = st.tuples(FLOATS, FLOATS).map(",".join)
# lower corner then upper: drawn in order, so that most windows get past the
# order check to the checks and the work behind it
WINDOWS = st.tuples(FLOATS, FLOATS).map(lambda p: ",".join(sorted(p, key=float)))
INT_PAIRS = st.tuples(INTS, INTS).map(",".join)
# a huge count of repeats or test points is work the user asked for, not a fault
COUNTS = st.sampled_from(["-1", "0", "1", "2"])
KERNELS = st.sampled_from(["se", "exp"])
# the helix files in the directory each case runs in, written once per module
DATA = st.sampled_from(["masked.csv", "truth.csv"])
CHILD_ADDRESS_SPACE = 2 << 30
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(coxcut.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p),
    PYTHONWARNINGS="error::RuntimeWarning,error::UserWarning",
)


def _flag(flag, values):
    """``flag=value``; the = keeps a value with a leading minus from reading as a flag."""
    return values.map(lambda v: [f"{flag}={v}"])


def _maybe(flag, values):
    return st.just([]) | _flag(flag, values)


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


def _kernel_flags(lengthscale=_flag):
    return (_maybe("--kernel", KERNELS), lengthscale("--lengthscale", FLOATS),
            _maybe("--variance", FLOATS))


# command: (examples, argv strategy). Each command checks its flags in turn
# and most draws stop at the first bad value, so a command with more flags
# ahead of its work gets more examples: simulate reaches its field only with
# a window, a grid and a kernel that all pass.
ARGV = {
    "gen": (4, _argv(
        _flag("--shape", st.sampled_from(["circles", "helix"])), _flag("--out", st.just("gen.csv")),
        _maybe("--truth-out", st.just("gen-truth.csv")), _maybe("--seed", INTS),
        _maybe("--n-per-class", INTS), _maybe("--labeled-per-class", INTS),
        _maybe("--noise", FLOATS), _maybe("--radii", FLOAT_PAIRS), _maybe("--radius", FLOATS),
        _maybe("--pitch", FLOATS), _maybe("--turns", FLOATS),
    )),
    "simulate": (12, _argv(
        _flag("--window", WINDOWS), _maybe("--grid", INTS), *_kernel_flags(_maybe),
        _maybe("--mean", FLOATS), _maybe("--seed", INTS),
        _flag("--out-field", st.just("field.csv")), _flag("--out-points", st.just("points.csv")),
    )),
    "fit": (4, _argv(
        _flag("--train", DATA), _maybe("--kernel", KERNELS),
        _maybe("--grid", st.just("auto") | FLOAT_PAIRS), st.sampled_from([[], ["--ssl"]]),
        _maybe("--folds", INTS), _maybe("--seed", INTS), _maybe("--cv-subsample", INTS),
        _flag("--out", st.just("fit.csv")),
    )),
    "predict": (4, _argv(
        _flag("--train", DATA), _flag("--test", DATA), *_kernel_flags(),
        _maybe("--means", FLOAT_PAIRS), _flag("--out", st.just("predict.csv")),
    )),
    "ssl": (4, _argv(
        _flag("--data", DATA), *_kernel_flags(), _maybe("--means", FLOAT_PAIRS),
        _flag("--out", st.just("ssl.csv")),
    )),
    "eval": (2, _argv(_flag("--pred", DATA), _flag("--truth", DATA), _maybe("--data", DATA))),
    "bench": (2, _argv(
        _maybe("--sizes", INT_PAIRS), _flag("--test-points", COUNTS), _flag("--repeats", COUNTS),
        _maybe("--seed", INTS),
    )),
    "energy": (4, _argv(
        _flag("--data", DATA), *_kernel_flags(), _maybe("--means", FLOAT_PAIRS),
        _flag("--dump", st.just("energy.json")),
    )),
}


@pytest.fixture(scope="module")
def helix_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    assert run(["gen", "--shape", "helix", "--n-per-class", "8", "--labeled-per-class", "2",
                "--out", str(tmp / "masked.csv"), "--truth-out", str(tmp / "truth.csv")]) == 0
    return tmp


def _limit_address_space():
    # runs in the child between fork and exec, so it limits only the child
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("command", sorted(ARGV))
def test_every_exit_keeps_the_contract(helix_dir, command):
    examples, strategy = ARGV[command]

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(argv=strategy)
    def case(argv):
        res = subprocess.run([sys.executable, "-m", "coxcut", command, *argv],
                             capture_output=True, text=True, cwd=helix_dir, env=CHILD_ENV,
                             preexec_fn=_limit_address_space, timeout=120)
        lines = res.stderr.splitlines()
        if res.returncode == 0:
            assert lines == []
        elif res.returncode == 1:
            assert len(lines) == 1 and lines[0].startswith("coxcut: error:"), res.stderr
        else:
            assert res.returncode == 2 and "usage: coxcut" in res.stderr, res.stderr

    case()

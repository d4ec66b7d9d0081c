"""Fuzzing of ``main(argv)`` with edge values for every numeric flag.

Every argv must end in exit 0, 1 or 2 (argparse's ``SystemExit(2)`` counts
as 2), no exception may escape, and what reaches stdout must hold no
non-finite number.  Draws stay clear of sizes that are legal but slow:
``--trunc`` above 512 and below the refusal limits (``verify --check bch
--trunc 2049`` takes seconds) and ``family binomial --n`` from 3000 to the
2**22-row limit.  ``family poisson --lambda`` is drawn up to 5e6, past the
rates whose default truncation the row limit admits (about 4.17e6): its
kernels run on a window of about 27 sqrt(lambda) outcomes (0.19 s in a fresh process at 4e6).
``infer binomial --n`` is drawn up to its 2**15 limit:
its rules sit on the count's window, so no size is slow.  ``infer poisson
--observed`` is drawn up to 10**13, the counts its grid, centred on the
Gamma mean, resolves (exit 0); 10**14, whose analytic mass misses 1 (exit
1), and the int64 edges are drawn apart.  Sizes past a refusal limit are
drawn: they exit 2 before any work.
"""

import contextlib
import io
import json
import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from cohstat.cli import _LIMITS, VERIFY_CHECKS, main

INT64_EDGES = (2**63 - 1, 2**63, 2**64, -(2**63), -(2**63) - 1, 2**31, 10**400)
FLOAT_EDGES = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
    1.7976931348623157e308, 1e300, -1.0, 0.5, 1.0, 0.9999999999999999,
)
# text argparse's int() refuses
NOT_INTEGERS = ("1.5", "1e3", "nan", "inf", "0x10", "")


def mostly(common, rare):
    """``common`` on three draws in four, ``rare`` on the fourth."""
    return st.integers(0, 3).flatmap(lambda draw: rare if draw == 0 else common)


def ints(low: int, high: int, past_limit: tuple[int, ...] = ()):
    """Integer flag text: mostly a small range, else int64 edges, values past a refusal limit or non-integers."""
    edges = st.sampled_from(INT64_EDGES + past_limit).map(str)
    return mostly(st.integers(low, high).map(str), st.one_of(edges, st.sampled_from(NOT_INTEGERS)))


def floats(*ranges: tuple[float, float]):
    """Float flag text as ``repr`` writes it: mostly draws from ``ranges``, else the edges and negatives."""
    edges = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(-1e6, 0.0))
    return mostly(st.one_of(*(st.floats(low, high) for low, high in ranges)), edges).map(repr)


def flag(name: str, values):
    """``--name=value``: the ``=`` keeps a negative value from reading as a flag."""
    return values.map(lambda value: (f"--{name}={value}",))


def optional(name: str, values):
    """The flag on one draw in four, else nothing."""
    return mostly(st.just(()), flag(name, values))


# the sizes just past a limit of cli._LIMITS
PAST_ROWS, PAST_TRIALS, PAST_LEVELS = (_LIMITS[name]["value"] + 1 for name in ("rows", "trials", "verify trunc"))

COMMON = st.tuples(
    optional("trunc", ints(-3, 512, past_limit=(PAST_LEVELS, PAST_ROWS, 10**30))),
    optional("tol", floats((1e-300, 1.0))),
    optional("seed", ints(-3, 10**6)),
)
ALPHA = st.tuples(st.sampled_from(FLOAT_EDGES), st.sampled_from(FLOAT_EDGES)).map(lambda z: str(complex(*z)))

VERIFY = st.tuples(
    st.just(("verify",)),
    st.sampled_from(VERIFY_CHECKS + ("all",)).map(lambda check: (f"--check={check}",)),
    optional("alpha", mostly(st.complex_numbers(max_magnitude=10.0).map(str), ALPHA)),
)
FAMILY_POISSON = st.tuples(st.just(("family", "poisson")), flag("lambda", floats((0.0, 1e4), (1e4, 5e6), (5e6, 1e300))))
FAMILY_BINOMIAL = st.tuples(
    st.just(("family", "binomial")),
    flag("n", ints(-3, 3000, past_limit=(PAST_ROWS - 1, PAST_ROWS))),
    flag("p", floats((0.0, 1.0))),
)
INFER_POISSON = st.tuples(st.just(("infer", "poisson")), flag("observed", ints(-3, 10**13, past_limit=(10**14,))))
INFER_BINOMIAL = st.tuples(
    st.just(("infer", "binomial")),
    flag("n", ints(-3, PAST_TRIALS - 1, past_limit=(PAST_TRIALS,))),
    flag("k", ints(-3, PAST_TRIALS - 1)),
)
ARGV = st.tuples(st.one_of(VERIFY, FAMILY_POISSON, FAMILY_BINOMIAL, INFER_POISSON, INFER_BINOMIAL), COMMON).map(
    lambda parts: [item for group in (*parts[0], *parts[1]) for item in group]
)
FORMAT = st.sampled_from(("json", "csv"))

NON_FINITE_CSV = re.compile(r"(?i)(?<![\w.])[-+]?(nan|inf|infinity)(?![\w.])")


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``main(argv)``; only argparse's SystemExit is caught."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue()


def refuse_constant(name: str):
    raise AssertionError(f"stdout holds {name}")


def assert_well_behaved(argv: list[str]) -> int:
    """Run ``argv``; assert an exit code of 0, 1 or 2 and finite output, and return the code."""
    code, out = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if "--format=csv" in argv:
        assert NON_FINITE_CSV.search(out) is None, out
    elif out:
        json.loads(out, parse_constant=refuse_constant)
    return code


@given(argv=ARGV, fmt=FORMAT)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_main_exits_0_1_or_2_with_finite_output(argv, fmt):
    assert_well_behaved([*argv, f"--format={fmt}"])


def test_edge_values_no_other_test_runs():
    # fixed argvs for edge values that only the draws above would otherwise reach
    for argv, expected in (
        (["family", "poisson", "--lambda=5e-324"], 0),
        (["family", "poisson", "--lambda=1e300", "--trunc=64"], 1),
        (["family", "binomial", "--n=4", "--p=0.9999999999999999", "--format=csv"], 0),
        (["infer", "poisson", f"--observed={2**63 - 1}"], 1),
        (["verify", "--check=all", f"--seed={2**64}", "--tol=5e-324", "--format=csv"], 1),
    ):
        assert assert_well_behaved(argv) == expected, argv

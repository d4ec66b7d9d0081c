"""Every pinned `cohstat` contract: exit code, stderr line, canonical JSON and byte-identical repeated runs.

``check`` makes every assertion of one ``CONTRACTS`` row through a ``run(argv)
-> (code, stdout, stderr)`` callable.  Every JSON stdout of an exit-0 run must be
``json.dumps(json.loads(stdout), indent=2)`` plus a newline, so that the bytes of
each float are Python's ``repr``.  A row with a stderr line and no ``--out``
of its own runs once more with ``--out`` in a temporary directory: it must
exit and report as before and leave no file there.  ``tests/test_cli_contracts.py`` runs the
rows in process through ``cohstat.cli.main``; ``python tests/cli_contracts.py``
runs them through the ``cohstat`` console script next to the interpreter, so a
plain ``pip install .`` checks them too.  It exits 1 naming each broken row with
its reason, 2 when that script is missing.  Only the standard library is imported.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple


class Contract(NamedTuple):
    argv: str  # split on whitespace
    code: int
    # how the one stderr line starts, "..." standing for any text; stdout is then empty.
    # None: stderr is empty (exit 0, and a verify exit 1, which reports its fail rows on stdout)
    stderr: str | None
    reason: str
    repeat: bool = False  # a second run writes byte-identical stdout
    config: str | None = None  # text of a config file passed with --config

    def __str__(self) -> str:
        return " --config ".join(filter(None, (self.argv, self.config)))


CONTRACTS = (
    Contract("verify --check all", 0, None, "verify residuals (LAPACK SVD for the BCH exponential, LAPACK eigh "
             "for the displacements and rotations) are byte-identical across runs", repeat=True),
    Contract("verify --check all --format csv", 0, None, "every verify row renders as CSV"),
    Contract("verify --check translation --trunc 512", 0, None, "one eigh of A + A+ per truncation: 512 levels pass"),
    Contract("verify --check translation --trunc 128", 0, None,
             "the translation check displaces through numpy's eigh of A + A+; its runs are byte-identical", repeat=True),
    Contract("verify --check translation --trunc 32 --tol 1e-7", 0, None, "--tol is the one gate of the "
             "translation residual: at 32 levels the residuals reach 2.1e-8, below 1e-7"),
    Contract("verify --check translation --trunc 32", 1, None, "two of the 32-level residuals are past the 1e-8 "
             "default: fail rows on stdout, not a numerical failure"),
    Contract("verify --check all --trunc 3", 1, None, "3 levels are too few for bch and translation: all 43 rows "
             "on stdout, those of bch and translation failing on finite residuals"),
    Contract("verify --check gauss --seed 5", 0, None, "the Gauss factors come from one cached exp(J+) per size; "
             "repeated runs are byte-identical", repeat=True),
    Contract("verify --check gauss --tol 1e-20", 1, None, "the gauss gate can fail: all 20 residuals, 5.8e-17 and "
             "up, are past --tol 1e-20, fail rows on stdout"),
    Contract("verify --check bch --alpha=3 --trunc 256", 0, None, "the largest BCH case the benchmark samples passes"),
    Contract("verify --check bch --alpha=3+1j --trunc 255", 0, None, "an odd truncation gives the displacement "
             "generator a rectangular even/odd block; its runs are byte-identical", repeat=True),
    Contract("verify --check bch --alpha=4.4 --trunc 64", 1, None, "the BCH check still probes truncation with exact "
             "ladder factors: alpha 4.4 is too large for 64 levels, a fail row on stdout"),
    Contract("verify --check bch --trunc 1000000", 2, "error: trunc 1000000 is past the limit of 4096 levels for verify",
             "verify --trunc past 4096 levels is refused before any matrix is built (usage error)"),
    Contract("verify --check ladder --trunc 512", 0, None,
             "the ladder check at the largest size the benchmark samples is byte-identical across runs", repeat=True),
    Contract("verify --check ladder --trunc 4096", 0, None,
             "the ladder rows come from the band of A, so the largest accepted truncation is cheap and passes"),
    Contract("verify --check example12 --out /dev/null/out.json", 2, "error: cannot write output to "
             "/dev/null/out.json: ...Not a directory", "an unwritable --out path is a usage error, never a traceback"),
    Contract("infer binomial --n 1000 --k 300", 0, None, "repeated JSON runs are byte-identical", repeat=True),
    Contract("infer binomial --n 2000 --k 1000", 0, None, "the Beta rules sit on the polar window of the count: "
             "2000 trials resolve, byte-identically across runs", repeat=True),
    Contract("infer binomial --n 200 --k 50", 0, None, "a table of 4004 float cells, past the size gate, is written "
             "by the vectorised shortest-float kernel: canonical JSON, byte-identical across runs", repeat=True),
    Contract("infer binomial --n 4 --k 2 --seed 3", 0, None,
             "small JSON runs are byte-identical, with a --seed that infer does not read", repeat=True),
    Contract("infer binomial --n 3000 --k 700", 1, "numerical failure: non-finite quadrature mass",
             "amplitudes that overflow are a numerical failure, never NaN output"),
    Contract("infer binomial --n 3000 --k 1500", 1, "numerical failure: non-finite quadrature mass",
             "sqrt C(3000, 1500) overflows at the centre of the window: a numerical failure"),
    Contract("infer binomial --n 5000 --k 2500", 1, "numerical failure: non-finite quadrature mass",
             "sqrt C(5000, 2500) overflows at the centre of the window: a numerical failure"),
    Contract("infer binomial --n 8000 --k 5", 1, "numerical failure: grid supports only mass ..., cannot cover",
             "a p grid too coarse to hold the credible masses is a numerical failure"),
    Contract("infer binomial --n 16000 --k 5", 1, "numerical failure: grid supports only mass ..., cannot cover",
             "Beta(6, 15996) falls between the first nodes of the p grid: a numerical failure, not a usage error"),
    Contract("infer binomial --n 16445 --k 0", 0, None, "b(0; 16445, 1/2) = 2**-16445 is still an extended-precision "
             "subnormal, so the edge magnitudes resolve"),
    Contract("infer binomial --n 16446 --k 0", 1, "numerical failure: quadrature mass 0.0 ...every magnitude on the "
             "window underflowed", "b(0; 16446, 1/2) = 2**-16446 is below the least extended-precision subnormal "
             "before np.ldexp scales it back, so every magnitude on the window is 0"),
    Contract("infer binomial --n 1000000000000 --k 5", 2, "error: n=1000000000000 is past the limit of 32768 trials "
             "for binomial inference", "infer binomial past 2**15 trials is refused before any posterior is computed "
             "(usage error)"),
    Contract("infer binomial --n 32768 --k 5", 1, "numerical failure: quadrature mass 0.0 ...every magnitude on "
             "the window underflowed", "2**15 trials are admitted, not refused; at k = 5 every magnitude "
             "underflows, a numerical failure"),
    Contract("infer poisson --observed 0", 0, None, "the rate grid reaches 20, past the mean + 10 deviations, "
             "so it holds a credible mass of 0.99999 of Gamma(1, 1)", config='{"mass_levels": [0.99999]}'),
    Contract("infer poisson --observed 1", 0, None, "the rate grid of Gamma(2, 1) ends at 20: its trapezoid "
             "steps lose 8.4e-6 of the mass, so it still holds 0.99999", config='{"mass_levels": [0.99999]}'),
    Contract("infer poisson --observed 1000", 0, None, "a Poisson posterior resolves on its radial window"),
    Contract("infer poisson --observed 1000 --format csv", 0, None, "credible intervals render as CSV footer lines"),
    Contract("infer poisson --observed 1000000", 0, None, "the Poisson radial rule follows the count: "
             "a million counts resolve, byte-identically across runs", repeat=True),
    Contract("infer poisson --observed 30000000", 0, None, "the lambda grid spans the Gamma(3e7 + 1, 1) mean "
             "+- 10 deviations, so its 2001 points resolve the posterior's width"),
    Contract("infer poisson --observed 30000000", 1, "numerical failure: grid supports only mass ..., cannot cover",
             "a lambda grid of 2 points holds almost none of the mass: a numerical failure",
             config='{"lambda_points": 2}'),
    Contract("infer poisson --observed 1000000000", 0, None, "the lambda grid follows the count: 10**9 counts "
             "resolve, byte-identically across runs", repeat=True),
    Contract("infer poisson --observed 10000000000000", 0, None,
             "10**13 counts resolve on the grid centred on the Gamma mean"),
    Contract("infer poisson --observed 100000000000000", 1, "numerical failure: total mass",
             "an analytic Gamma mass that misses 1 at 10**14 counts is a numerical failure"),
    Contract("infer poisson --observed 9223372036854775807", 1, "numerical failure: total mass",
             "a count of 2**63 - 1 is admitted, and its analytic Gamma mass misses 1"),
    Contract("infer poisson --observed 9223372036854775808", 2, "error: observed count 9223372036854775808 is past "
             "the limit of 9223372036854775807 counts for Poisson inference",
             "a count past 2**63 - 1 is refused before any posterior is computed (usage error)"),
    Contract("infer poisson --observed 3", 2, "config error: lambda_points must be an integer",
             "a config value of the wrong type is a configuration error, never a traceback",
             config='{"lambda_points": "abc"}'),
    Contract("infer poisson --observed 3", 2, "config error: lambda_points needs a table of 1000000000000 rows, "
             "past the limit of 4194304 rows", "an infer grid past the 2**22-row table limit is a configuration "
             "error, refused before it is built", config='{"lambda_points": 1000000000000}'),
    Contract("family poisson --lambda 10000", 0, None, "a rate-10**4 family is tabulated on its default truncation"),
    Contract("family poisson --lambda 5000", 0, None, "995 rows of int64 outcomes and float cells, past the size "
             "gate, are written by the vectorised kernel: canonical JSON, byte-identical across runs", repeat=True),
    Contract("family poisson --lambda 100 --trunc 80", 1, "numerical failure: ...truncation 80",
             "a Fock truncation too small for the displacement is a numerical failure"),
    Contract("family binomial --n 10000000 --p 0.5", 2, "error: ...past the limit of 4194304 rows",
             "a family table past the 2**22-row limit is refused before it is built (usage error)"),
    Contract("family binomial --n 1000000000000 --p 0.5", 2, "error: n=1000000000000 needs a table of "
             "1000000000001 rows, past the limit of 4194304 rows", "a family table of 7.3 TiB is refused before "
             "it is built (usage error)"),
    Contract("family binomial --n 9223372036854775806 --p 0.5", 2, "error: ...past the limit of 4194304 rows",
             "2**63 - 1 outcomes fit int64, but np.arange of that many is empty: refused before it is built"),
    Contract("family poisson --lambda 1 --trunc 9223372036854775807", 2, "error: ...past the limit of 4194304 rows",
             "a truncation of 2**63 - 1 levels fits int64 but is refused before any array is built"),
    Contract("family binomial --n 9223372036854775807 --p 0.5", 2, "error: n=9223372036854775807 needs a table of "
             "9223372036854775808 rows, past the limit of 4194304 rows", "2**63 outcomes, which int64 cannot index, "
             "are past the row limit too: refused before any array is built (usage error)"),
    Contract("family poisson --lambda 1e308", 2, "error: lambda=1e+308 needs a table past the limit of 4194304 rows",
             "the default truncation of about 1e308 levels is past the row limit; the refusal names the rate given, "
             "not the 309 digits of that truncation (usage error)"),
    Contract("family binomial --n 2100 --p 0.3", 1, "numerical failure: state has non-finite entries",
             "sqrt C(2100, k) overflows a double from k = 868, inside the window [312, 948) of outcomes the "
             "table evaluates, so the closed-form state is not finite there"),
    Contract("family binomial --n 3000 --p 0.01", 0, None, "sqrt C(3000, k) overflows from k = 547, outside the "
             "window [0, 141) of outcomes the table evaluates, so the table is finite"),
    Contract("family binomial --n 20000 --p 0.01", 1, "numerical failure: state magnitudes underflowed to 0",
             "sqrt C(20000, k) = sqrt(2**20000 b(k; 20000, 1/2)) underflows on the window around np = 200: "
             "a numerical failure, as the overflow at the centre is"),
    Contract("family poisson --lambda 1 --trunc 4194304", 0, None, "a truncation at the row limit: the kernels run "
             "only on the 185 outcomes of the window, not on the 4194304 levels"),
)


def check(row: Contract, run: Callable[[list[str]], tuple[int, str, str]]) -> None:
    """Run ``row`` through ``run``; raise AssertionError naming each broken part, the row and its reason."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = row.argv.split()
        if row.config is not None:
            config = Path(tmp, "config.json")
            config.write_text(row.config)
            argv += ["--config", str(config)]
        code, stdout, stderr = run(argv)
        again = run(argv)[1] if row.repeat else stdout
        out = Path(tmp, "out")
        # a failed run writes no --out file, and exits and reports as it does without one
        with_out = run([*argv, "--out", str(out)]) if row.stderr is not None and "--out" not in argv else None
        wrote = out.exists()
    faults = [f"exit {code}, expected {row.code}"] if code != row.code else []
    if with_out is not None and (with_out[0], with_out[2]) != (code, stderr):
        faults.append(f"with --out: exit {with_out[0]} and stderr {with_out[2]!r}, unlike the run without it")
    if wrote:
        faults.append("a run with --out wrote the file")
    if row.stderr is None and stderr:
        faults.append(f"stderr {stderr!r}, expected none")
    if row.stderr is not None:
        start = ".*?".join(map(re.escape, row.stderr.split("...")))
        if stderr.count("\n") != 1 or not stderr.endswith("\n") or not re.match(start, stderr):
            faults.append(f"stderr {stderr!r}, expected one line starting {row.stderr!r}")
        if stdout:
            faults.append(f"{len(stdout)} characters on stdout, expected none")
    if code == 0 and stdout and "--format csv" not in row.argv:
        try:
            canonical = json.dumps(json.loads(stdout), indent=2) + "\n"
        except ValueError:
            canonical = None
        if canonical != stdout:
            faults.append("stdout is not json.dumps(json.loads(stdout), indent=2)")
    if again != stdout:
        faults.append("a second run wrote different stdout")
    if faults:
        raise AssertionError(f"cohstat {row}: {'; '.join(faults)} ({row.reason})")


def _run_script(script: Path, argv: list[str]) -> tuple[int, str, str]:
    done = subprocess.run([str(script), *argv], capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    script = Path(sys.executable).with_name("cohstat")
    if not script.is_file():
        print(f"no cohstat console script next to {sys.executable}: install the package first", file=sys.stderr)
        return 2
    broken = 0
    for row in CONTRACTS:
        try:
            check(row, lambda argv: _run_script(script, argv))
        except AssertionError as exc:
            broken += 1
            print(f"FAIL {exc}", file=sys.stderr)
    print(f"{len(CONTRACTS) - broken} of {len(CONTRACTS)} contracts hold ({script})", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One workload process: a closed loop of ``cohstat.cli.main(argv)`` calls.

``run.py`` starts this in a fresh interpreter with BLAS pinned to one
thread and the checkout's ``src`` on ``PYTHONPATH``.  It times the import
of ``cohstat.cli``, makes one untimed warm-up call per command kind, then
replays the workload's pass at least twice and until the passes have
taken ``--seconds``.  Before the first pass, and after passes at least a
quarter of ``--seconds`` apart, it times three set-ups, each the import
of ``cohstat.cli`` in a fresh interpreter.  With ``--trace`` it instead
runs four passes, alternately untraced and traced by ``spans``.
Each output is checked and digested outside the timed call.  The last
stdout line is one JSON object of raw results.

    python3 bench/worker.py --workload family-mix --seed 1 --seconds 20
    python3 bench/worker.py --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

import workloads

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PASSES = 2
# set-ups timed at each sampling moment of a run
SETUPS = 3


def run_op(main, argv) -> tuple[float, int | None, str, str]:
    """Call ``main(argv)`` with stdout and stderr captured.

    Returns (latency in s, exit code or None for a raised exception,
    stdout text, failure detail).  The detail is the last stderr line, the
    ``SystemExit`` of argparse, or the exception raised.
    """
    out, err = io.StringIO(), io.StringIO()
    detail = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
            detail = f"SystemExit({exc.code!r})"
        except Exception as exc:  # a crash is one failed op; the sweep goes on
            code = None
            detail = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    lines = err.getvalue().strip().splitlines()
    # warnings print once per process, so only the last line is deterministic
    return latency, code, out.getvalue(), detail or (lines[-1] if lines else "")


def outcome(op: workloads.Op, code: int | None, stdout: str, detail: str) -> str | None:
    """Why the op failed, or None when it exited 0 and its output checks out."""
    import checks  # scipy.stats; main() loads it only after timing the cohstat import

    try:
        if code == 0:
            return checks.check(op.kind, op.params, json.loads(stdout))
        if code == 1 and op.kind == "verify":
            return "exit 1: " + checks.failing_rows(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"exit {code} with unreadable output: {type(exc).__name__}: {exc}"
    return f"exit {code}: {detail}"


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in PINNED},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def fresh_import_s() -> float:
    """Wall time of ``import cohstat.cli`` in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, __file__, "--setup-only"], stdout=subprocess.PIPE, check=True, text=True
    )
    return json.loads(completed.stdout)["import_s"]


def loop(cli, ops, seconds: float, tracer=None, between_passes=lambda: None) -> dict:
    """Replay whole passes of ``ops``, calling ``between_passes`` before the
    first pass and after every pass.

    Untraced, run at least MIN_PASSES passes and until the passes have
    taken ``seconds``; time spent in ``between_passes`` does not count.
    With a ``tracer``, run MIN_PASSES untraced and MIN_PASSES traced
    passes, alternately, so that host drift hits both sides alike.  Every
    pass must reproduce the outputs of the first one.
    """
    passes: list[list[float]] = []
    traced_passes: list[list[float]] = []
    digests: list[str] = []
    reasons: list[str | None] = []
    failures, mismatches, output_bytes = [], [], 0
    elapsed = 0.0
    while (
        len(passes) < MIN_PASSES
        or len(traced_passes) < (MIN_PASSES if tracer else 0)
        or (tracer is None and elapsed < seconds)
    ):
        between_passes()
        started = time.perf_counter()
        first = not passes
        traced = tracer is not None and len(traced_passes) < len(passes)
        if traced:
            import spans

            uninstall = spans.install(tracer)
        latencies = []
        for index, op in enumerate(ops):
            latency, code, stdout, detail = run_op(cli.main, op.argv)
            if traced:
                tracer.fold()
            latencies.append(latency)
            digest = hashlib.sha256(f"{code}\n{detail}\n{stdout}".encode()).hexdigest()
            if first:
                output_bytes += len(stdout.encode())
                digests.append(digest)
                reasons.append(outcome(op, code, stdout, detail))
                if reasons[-1] is not None:
                    failures.append({"argv": list(op.argv), "reason": reasons[-1]})
            elif digest != digests[index]:
                mismatches.append({"pass": len(passes) + len(traced_passes), "op": index, "traced": traced})
        if traced:
            uninstall()
            traced_passes.append(latencies)
        else:
            passes.append(latencies)
        elapsed += time.perf_counter() - started
    between_passes()
    failed = sum(reason is not None for reason in reasons)
    runs = len(passes) + len(traced_passes)
    return {
        "latencies": passes,
        "traced_latencies": traced_passes,
        "attempted": runs * len(ops),
        "failed": runs * failed,
        "digests": digests,
        "mismatches": mismatches,
        "failures": failures,
        "output_bytes": output_bytes,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    unpinned = [var for var in PINNED if os.environ.get(var) != "1"]
    if unpinned:
        sys.exit(f"worker: {', '.join(unpinned)} must be 1 before numpy is imported")

    start = time.perf_counter()
    import cohstat.cli as cli

    import_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"import_s": import_s}))
        return
    if args.workload is None:
        parser.error("--workload is required")
    import checks  # noqa: F401  (loads scipy.stats before the loop's clock starts)

    ops = workloads.WORKLOADS[args.workload](args.seed)
    warm = {}
    for op in ops:
        warm.setdefault(op.kind, op)
    for op in warm.values():
        run_op(cli.main, op.argv)

    setup_s: list[float] = []
    if args.trace:
        import spans

        tracer = spans.Tracer()
        result = loop(cli, ops, 0.0, tracer)
        result["totals"] = {name: vars(t) for name, t in tracer.totals.items()}
        result["useful_bytes"] = tracer.useful_bytes
        result["computed_bytes"] = tracer.computed_bytes
    else:
        # this process's own import above byte-compiled cohstat and filled the page cache
        last = -math.inf

        def sample_setup():
            # the host's speed drifts over seconds: spread the samples over the run
            nonlocal last
            if time.perf_counter() - last >= args.seconds / 4:
                last = time.perf_counter()
                setup_s.extend(fresh_import_s() for _ in range(SETUPS))

        result = loop(cli, ops, args.seconds, between_passes=sample_setup)
    result["import_s"] = import_s
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = _environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()

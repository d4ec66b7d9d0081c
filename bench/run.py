"""cohstat benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify-mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs in one fresh worker
process (``worker.py``) with BLAS pinned to one thread; nothing else runs
meanwhile.

``--trace 0``: runs the workload's closed loop untraced for at least
``--seconds`` (whole passes, at least two) and reports the end-to-end
metrics.  The latency percentiles are taken over every op call of the
run, and ``ops_per_s`` is the ops completed over the summed latencies of
all calls.  ``setup_s`` is the median of the set-up times sampled through
the run; a set-up is a fresh interpreter importing ``cohstat.cli``.

``--trace 1``: runs two untraced and two traced passes, alternately, in
one worker, checks that all of them produced identical outputs, and
reports the per-layer metrics per pass, averaged over the traced passes.

The second-to-last stdout line records the environment, the output digest
and every failure with its reason; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from worker import PINNED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170.0

_LAYER_METRICS = (
    ("linops.matrix_exponential", ("calls", "self_ms", "bytes")),
    ("linops.hermitian_eigendecomposition", ("calls", "self_ms")),
    ("fock.build_ladder", ("self_ms", "bytes")),
    ("fock.bch_check", ("self_ms",)),
    ("fock.displacement_translation_check", ("self_ms",)),
    ("fock.coherent_amplitudes", ("calls", "self_ms", "bytes")),
    ("fock.coherent_closed_form", ("self_ms",)),
    ("fock.poisson_pmf", ("calls", "self_ms")),
    ("spin.build_spin_rep", ("self_ms", "bytes")),
    ("spin.coherent_amplitudes", ("calls", "self_ms", "bytes")),
    ("spin.gauss_decomposition_check", ("self_ms",)),
    ("spin.binomial_pmf", ("calls", "self_ms")),
    ("inference.quadrature", ("self_ms", "nodes")),
    ("inference.infer_via_pov", ("self_ms",)),
    ("inference.resolution_of_identity_check", ("self_ms",)),
    ("inference.analytic_posterior", ("self_ms",)),
    ("inference.credible_interval", ("calls", "self_ms")),
    ("pv_measure.VectorState", ("calls", "self_ms")),
    ("pv_measure.born_probabilities", ("self_ms",)),
    ("cli.main", ("calls",)),
)
_UNITS = {"calls": "count", "self_ms": "ms", "bytes": "B", "nodes": "count"}
_TOTALS_FIELD = {"calls": "calls", "self_ms": "self_s", "bytes": "nbytes", "nodes": "nodes"}


def git_commit() -> str:
    """HEAD of the checkout's own git repository; 'unknown' outside one."""
    try:
        completed = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
    except OSError:
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def start_worker(*args: str) -> dict:
    """Run ``worker.py`` with BLAS pinned; its last stdout line is the result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in PINNED})
    completed = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=TIME_LIMIT_S,
        check=True,
        text=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def pooled_ms(passes: list[list[float]]) -> list[float]:
    """Every op call of the passes, in ms."""
    return [1000.0 * latency for latencies in passes for latency in latencies]


def end_to_end(start, args) -> tuple[dict, dict, dict]:
    run = start("--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds))
    calls_ms = pooled_ms(run["latencies"])
    p90 = statistics.quantiles(calls_ms, n=10, method="inclusive")[-1]
    metrics = {
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "op_p50_ms": (statistics.median(calls_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "ops_per_s": (1000.0 * (run["attempted"] - run["failed"]) / sum(calls_ms), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    info = {
        "worker_import_s": run["import_s"],
        "setup_samples_s": run["setup_s"],
        "pass_p50_ms": [1000.0 * statistics.median(latencies) for latencies in run["latencies"]],
        "pass_ops_per_s": [len(latencies) / sum(latencies) for latencies in run["latencies"]],
        "calls_beyond_p90": sum(x > p90 for x in calls_ms),
    }
    return run, metrics, info


def per_layer(start, args) -> tuple[dict, dict, dict]:
    run = start("--workload", args.workload, "--seed", str(args.seed), "--trace")
    traced_passes = len(run["traced_latencies"])
    totals = run["totals"]
    metrics = {}
    for name, fields in _LAYER_METRICS:
        for field in fields:
            value = totals.get(name, {}).get(_TOTALS_FIELD[field], 0) / traced_passes
            metrics[f"{name}.{field}"] = (1000.0 * value if field == "self_ms" else value, _UNITS[field])
    metrics["inference.amplitude_at.useful_ratio"] = (
        run["useful_bytes"] / run["computed_bytes"] if run["computed_bytes"] else 0.0,
        "ratio",
    )
    metrics["cli.self_ms"] = (1000.0 * totals["cli.main"]["self_s"] / traced_passes, "ms")
    metrics["cli.output_bytes"] = (run["output_bytes"], "B")
    plain_p50 = statistics.median(pooled_ms(run["latencies"]))
    traced_p50 = statistics.median(pooled_ms(run["traced_latencies"]))
    metrics["trace.overhead_pct"] = (100.0 * (traced_p50 - plain_p50) / plain_p50, "%")
    metrics["error_rate"] = (run["failed"] / run["attempted"], "ratio")
    identical = not any(mismatch["traced"] for mismatch in run["mismatches"])
    return run, metrics, {"traced_matches_untraced": identical}


def main() -> int:
    parser = argparse.ArgumentParser(description="cohstat benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "cohstat" / "cli.py").is_file():
        print(f"bench: no cohstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        run, metrics, info = (per_layer if args.trace else end_to_end)(start_worker, args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: worker failed: {exc}", file=sys.stderr)
        return 1
    correct = not run["mismatches"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "environment": run["environment"],
        "digest": hashlib.sha256("".join(run["digests"]).encode()).hexdigest(),
        "digest_ops": len(run["digests"]),
        "mismatched_ops": run["mismatches"],
        "failures": run["failures"],
        **info,
    }
    print(json.dumps(record))
    result = {
        "correct": bool(correct),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

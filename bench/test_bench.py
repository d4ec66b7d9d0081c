"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spans import Span  # noqa: E402


def test_generator_is_reproducible_per_seed():
    for name, make in workloads.WORKLOADS.items():
        first, again, other = make(7), make(7), make(8)
        assert first == again
        assert len(first) == workloads.PASS_LENGTH[name] >= 100
        assert [op.argv for op in first] != [op.argv for op in other]


def test_generated_parameters_stay_in_their_ranges():
    for seed in range(5):
        alphas = [
            complex(arg.split("=", 1)[1])
            for op in workloads.verify_mix(seed)
            for arg in op.argv
            if arg.startswith("--alpha=")
        ]
        assert alphas and all(abs(alpha) <= 3.0 for alpha in alphas)
        posterior = workloads.posterior_mix(seed)
        assert all(0 <= op.params["n"] <= 1000 for op in posterior if op.kind == "infer-poisson")
        assert all(
            1 <= op.params["n"] <= 200 and 0 <= op.params["k"] <= op.params["n"]
            for op in posterior
            if op.kind == "infer-binomial"
        )
        family = workloads.family_mix(seed)
        assert all(0.01 <= op.params["lam"] <= 1e4 for op in family if op.kind == "family-poisson")
        binomial = [op.params for op in family if op.kind == "family-binomial"]
        assert binomial[0] == {"n": 2000, "p": 0.5}  # the roadmap's fixed command
        assert all(1 <= params["n"] <= 1000 and 0.0 <= params["p"] < 1.0 for params in binomial[1:])


def test_self_time_subtracts_the_time_children_cover():
    tree = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.x", 1, 2.0, 3.0),
        Span("b", 0, 3.5, 6.0),  # overlaps a: the root's children cover 1..6 once
        Span("c", 0, 9.0, 12.0),  # runs past the root: only 9..10 counts
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_fold_totals_and_amplitude_useful_ratio():
    tracer = spans.Tracer()
    tracer.spans.extend(
        [
            Span("inference.infer_via_pov", None, 0.0, 10.0),
            Span("inference.amplitude_at", 0, 1.0, 5.0, nbytes=10),
            Span("spin.coherent_amplitudes", 1, 2.0, 4.0, nbytes=1000),
            Span("inference.amplitude_at", 0, 6.0, 7.0, nbytes=20),
        ]
    )
    tracer.fold()
    assert tracer.spans == []
    assert tracer.totals["inference.amplitude_at"].calls == 2
    assert tracer.totals["inference.amplitude_at"].self_s == pytest.approx(3.0)
    assert tracer.totals["inference.infer_via_pov"].self_s == pytest.approx(5.0)
    assert (tracer.useful_bytes, tracer.computed_bytes) == (30, 1020)


def test_failures_are_counted_with_their_reason():
    cli = pytest.importorskip("cohstat.cli")
    ops = [
        workloads._family_binomial(2300, 0.5),
        workloads._family_poisson(4.0),
        # without "=" argparse reads the negative value as a flag and exits
        workloads.Op("verify", ("verify", "--check", "bch", "--alpha", "-1.2+0.3j")),
        workloads._verify("--check", "bch", "--alpha=4.4", "--trunc", "64"),
    ]
    result = worker.loop(cli, ops, seconds=0.0)
    passes = worker.MIN_PASSES
    assert (len(result["latencies"]), result["attempted"], result["failed"]) == (passes, 4 * passes, 3 * passes)
    reasons = [failure["reason"] for failure in result["failures"]]
    assert "non-finite" in reasons[0]
    assert "SystemExit(2)" in reasons[1]
    assert reasons[2].startswith("exit 1: bch alpha=4.4")


def test_tracing_rebinds_every_alias_and_changes_no_output():
    cli = pytest.importorskip("cohstat.cli")
    from cohstat import fock, linops, spin

    original = linops.matrix_exponential
    argv = ("verify", "--check", "bch", "--trunc", "16")
    plain = worker.run_op(cli.main, argv)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert fock.matrix_exponential is spin.matrix_exponential is linops.matrix_exponential
        assert linops.matrix_exponential is not original
        traced = worker.run_op(cli.main, argv)
        tracer.fold()
    finally:
        uninstall()
    assert fock.matrix_exponential is spin.matrix_exponential is linops.matrix_exponential is original
    assert traced[1:] == plain[1:]
    assert tracer.totals["cli.main"].calls == 1
    assert tracer.totals["fock.bch_check"].calls == 1
    assert tracer.totals["linops.matrix_exponential"].calls == 4
    assert tracer.totals["linops.matrix_exponential"].nbytes == 4 * 16 * 16 * 16


def _fake_worker(*args):
    """Canned worker results, enough to build every reported metric."""
    calls = [0.001 * (i + 1) for i in range(100)]
    return {
        "import_s": 0.4,
        "setup_s": [0.3, 0.5, 0.4, 0.35, 0.2, 0.6],
        "latencies": [calls, calls[::-1]],
        "traced_latencies": [[1.1 * x for x in calls]] * 2,
        "attempted": 200,
        "failed": 2,
        "peak_rss_mb": 100.0,
        "totals": {"cli.main": {"calls": 200, "self_s": 2.0, "nbytes": 0, "nodes": 0}},
        "useful_bytes": 1,
        "computed_bytes": 2,
        "output_bytes": 10,
        "mismatches": [],
    }


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    args = argparse.Namespace(workload="verify-mix", seed=1, seconds=1.0)
    _, end_to_end, _ = run.end_to_end(_fake_worker, args)
    _, per_layer, _ = run.per_layer(_fake_worker, args)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in end_to_end.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in per_layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    # percentiles over every call of the run
    assert end_to_end["op_p50_ms"][0] == pytest.approx(50.5)
    assert end_to_end["op_p90_ms"][0] == pytest.approx(90.1)
    assert end_to_end["setup_s"][0] == pytest.approx(0.375)
    # completed ops over the summed latencies of every call
    assert end_to_end["ops_per_s"][0] == pytest.approx(198 / 10.1)
    assert per_layer["cli.main.calls"][0] == 100
    assert per_layer["cli.self_ms"][0] == pytest.approx(1000.0)
    assert per_layer["trace.overhead_pct"][0] == pytest.approx(10.0)


def test_traced_loop_alternates_with_untraced_passes():
    cli = pytest.importorskip("cohstat.cli")
    from cohstat import cli as cli_module

    original = cli_module.main
    calls = []
    tracer = spans.Tracer()
    result = worker.loop(cli, [workloads._family_poisson(4.0)], 0.0, tracer, lambda: calls.append(1))
    assert len(result["latencies"]) == len(result["traced_latencies"]) == worker.MIN_PASSES
    assert len(calls) == 2 * worker.MIN_PASSES + 1
    assert result["mismatches"] == [] and result["failed"] == 0
    assert tracer.totals["cli.main"].calls == worker.MIN_PASSES
    assert cli_module.main is original

import argparse
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import beta, binom, gamma

import cohstat
from cohstat import cli, fock, inference, pv_measure, spin
from cohstat.cli import ConfigError, RunConfig, load_config, main


def run_json(tmp_path, args, name="out.json"):
    """Run the CLI writing JSON to a temp file; return (exit code, payload)."""
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, json.loads(out.read_text())


INFER_3 = ["infer", "poisson", "--observed", "3"]


def stdout_at_blas_threads(argv, threads):
    """The stdout of ``python -m cohstat *argv`` in a fresh process whose BLAS runs ``threads`` threads."""
    env = dict(os.environ, PYTHONPATH=str(Path(cohstat.__file__).parent.parent))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
    return subprocess.run([sys.executable, "-m", "cohstat", *argv], env=env, capture_output=True, check=True).stdout


def peak_rss_kb(argv):
    """The peak RSS in kilobytes (Linux's ``ru_maxrss``) of ``main([*argv, "--out", os.devnull])``, which must exit
    0, in a fresh process whose BLAS runs one thread.  Linux carries a process's peak RSS across exec, so a
    process started from this one would count this one's resident size: a small Python process starts it and
    reads its peak as that of its child."""
    run = "import os, sys\nfrom cohstat.cli import main\nassert main([*sys.argv[1:], '--out', os.devnull]) == 0"
    launch = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', *sys.argv[1:]], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cohstat.__file__).parent.parent))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    result = subprocess.run([sys.executable, "-c", launch, run, *argv], env=env, capture_output=True, text=True,
                            check=True)
    return int(result.stdout)


def as_records(payload):
    """The payload as written: its ``rows`` columns turned into one dict per row, a float64 or int64 array
    column read through ``tolist()``."""
    columns = {key: getattr(column, "tolist", lambda: column)() for key, column in payload["rows"].items()}
    return dict(payload, rows=[dict(zip(columns, row)) for row in zip(*columns.values())])


def read_back(text, like):
    """A CSV cell read back as the type of its JSON value; floats round-trip at 17 digits."""
    if isinstance(like, bool):
        return {"true": True, "false": False}[text]
    return type(like)(text)


# n_r, n_angle, n_theta and n_gamma are rule sizes, not settings: no value of them changes a result
UNKNOWN_KEYS = {"truncK": 32, "n_r": 200, "n_angle": 65, "n_theta": 22, "n_gamma": 41}


def namespace(**kwargs):
    defaults = {key: None for key in ("trunc", "tol", "format", "seed", "out", "config")}
    defaults.update(kwargs)
    return argparse.Namespace(**defaults)


class TestLoadConfig:
    def test_documented_defaults(self):
        config = load_config(namespace())
        assert config == RunConfig()
        assert config.trunc is None
        assert config.lambda_points == 2001
        assert config.format == "json"

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"trunc": 32, "lambda_points": 120}))
        config = load_config(namespace(config=str(path)))
        assert config.trunc == 32
        assert config.lambda_points == 120

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"trunc": 32}))
        config = load_config(namespace(config=str(path), trunc=16))
        assert config.trunc == 16

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "config.json"
        for key, value in UNKNOWN_KEYS.items():
            path.write_text(json.dumps({key: value}))
            with pytest.raises(ConfigError, match=key):
                load_config(namespace(config=str(path)))

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError, match="tol"):
            load_config(namespace(tol=-1.0))

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        for key, value in UNKNOWN_KEYS.items():
            path.write_text(json.dumps({key: value}))
            code = main(["family", "poisson", "--lambda", "1", "--config", str(path)])
            assert code == 2
            assert key in capsys.readouterr().err

    # (argv, config file text or None, extra flags, key named in the error, exit code of argv alone)
    @pytest.mark.parametrize(
        "argv, config, flags, key, default_code",
        [
            (INFER_3, '{"n_r": "abc"}', [], "n_r", 0),
            (INFER_3, '{"seed": "a"}', [], "seed", 0),
            (INFER_3, '{"tol": "x"}', [], "tol", 0),
            (INFER_3, '{"mass_levels": 0.5}', [], "mass_levels", 0),
            (INFER_3, '{"mass_levels": ["0.5"]}', [], "mass_levels", 0),
            (INFER_3, '{"n_r": 20.5}', [], "n_r", 0),
            (INFER_3, '{"n_r": null}', [], "n_r", 0),
            (INFER_3, '{"lambda_points": 2.5}', [], "lambda_points", 0),
            (INFER_3, '{"trunc": true}', [], "trunc", 0),
            (INFER_3, '{"tol": Infinity}', [], "tol", 0),
            (INFER_3, '{"format": 1}', [], "format", 0),
            # NaN would switch off the truncation guard, which refuses these flags by default
            (["family", "poisson", "--lambda", "50", "--trunc", "64"], '{"tail_tol": NaN}', [], "tail_tol", 1),
            # NaN would fail every check, a bad argument reported as a verification failure
            (["verify", "--check", "example12"], None, ["--tol", "nan"], "tol", 0),
            (INFER_3, '{"n_angle": 65}', [], "n_angle", 0),
            (["infer", "binomial", "--n", "20", "--k", "7"], '{"n_theta": 22}', [], "n_theta", 0),
            (["infer", "binomial", "--n", "20", "--k", "7"], '{"n_gamma": 41}', [], "n_gamma", 0),
            (INFER_3, '{"lambda_points": "abc"}', [], "lambda_points", 0),
            (INFER_3, '{"lambda_points": null}', [], "lambda_points", 0),
            # past the table-row limit: numpy could not allocate the grid
            (INFER_3, '{"lambda_points": 1000000000000}', [], "lambda_points", 0),
            (["infer", "binomial", "--n", "20", "--k", "7"], '{"p_points": 1000000000000}', [], "p_points", 0),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, argv, config, flags, key, default_code):
        assert main([*argv, "--out", os.devnull]) == default_code
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(config)
            flags = [*flags, "--config", str(path)]
        capsys.readouterr()
        assert main([*argv, *flags, "--out", os.devnull]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert err.count("\n") == 1


class TestFamilyCommand:
    def test_poisson_unit_rate(self, tmp_path):
        code, payload = run_json(tmp_path, ["family", "poisson", "--lambda", "1"])
        assert code == 0
        assert set(payload) == {"schema_version", "command", "config", "rows", "footer"}
        assert payload["schema_version"] == 1
        assert payload["command"] == "family"
        row = payload["rows"][1]
        assert row["outcome"] == 1
        assert row["probability"] == pytest.approx(0.3678794, abs=1e-7)
        assert payload["footer"]["max_abs_diff"] < 1e-10

    def test_poisson_zero_rate_sentinel(self, tmp_path):
        code, payload = run_json(tmp_path, ["family", "poisson", "--lambda", "0"])
        assert code == 0
        assert payload["rows"] == [{"outcome": 0, "probability": 1.0, "pmf": 1.0}]

    def test_binomial_fair_two_trials(self, tmp_path):
        code, payload = run_json(tmp_path, ["family", "binomial", "--n", "2", "--p", "0.5"])
        assert code == 0
        probs = [row["probability"] for row in payload["rows"]]
        assert np.abs(np.array(probs) - [0.25, 0.5, 0.25]).max() < 1e-14

    def test_binomial_allocates_no_spin_matrices(self, tmp_path):
        # n = 2000 would need three (n+1)^2 complex matrices, about 190 MB
        tracemalloc.start()
        try:
            code = main(["family", "binomial", "--n", "2000", "--p", "0.5", "--out", str(tmp_path / "out.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20

    def test_invalid_parameters_exit_2(self, capsys):
        assert main(["family", "poisson", "--lambda", "-1"]) == 2
        assert main(["family", "binomial", "--n", "2", "--p", "1.0"]) == 2
        # beyond numpy's int64, and here beyond a float, a count is refused before any kernel
        assert main(["family", "binomial", "--n", str(10**400), "--p", "0.5"]) == 2
        assert main(["family", "poisson"]) == 2
        assert "error" in capsys.readouterr().err

    def test_million_row_poisson_table_is_built(self):
        # 14,069 rows carry mass: 38 MB and 0.19 s in a fresh process (one BLAS thread), where computing all
        # 1,012,001 outcomes took 155 MB and writing them all 505 MB
        assert peak_rss_kb(["family", "poisson", "--lambda", "1e6"]) < 256 * 1024

    # the kernels run on the window, not the truncation: 30 and 41 MB, where computing every outcome took 518
    # and 499 MB
    @pytest.mark.parametrize("argv", [["--lambda", "1", "--trunc", "4194304"], ["--lambda", "4e6"]],
                             ids=["trunc-4194304", "lambda-4e6"])
    def test_poisson_window_bounds_peak_memory(self, argv):
        assert peak_rss_kb(["family", "poisson", *argv]) < 128 * 1024

    # 2.0: sqrt(2)**2 != 2, so the rows must use the rate poisson_pmf sees, not lambda itself
    @pytest.mark.parametrize("lam", [0.0, 0.01, 1.0, 2.0, 1000.0, 10000.0])
    def test_poisson_rows_match_per_row_pmf_loop(self, tmp_path, lam):
        # oracle: one fock.poisson_pmf call per row, the rows starting once the cumulative pmf reaches
        # 1e-12 and stopping once it reaches 1 - 1e-12
        alpha = math.sqrt(lam)
        trunc = fock.default_truncation(alpha)
        probs = np.abs(fock.coherent_closed_form(alpha, fock.FockSpace(trunc)).vector.vector) ** 2
        expected, cumulative, lower_mass, max_diff = [], 0.0, 0.0, 0.0
        for n in range(trunc):
            pmf = fock.poisson_pmf(alpha, n)
            cumulative += pmf
            if cumulative < 1e-12:
                lower_mass = cumulative
                continue
            expected.append({"outcome": n, "probability": float(probs[n]), "pmf": pmf})
            max_diff = max(max_diff, abs(probs[n] - pmf))
            if cumulative >= 1.0 - 1e-12:
                break
        code, payload = run_json(tmp_path, ["family", "poisson", "--lambda", repr(lam)])
        assert code == 0
        assert len(payload["rows"]) == len(expected)
        assert payload["rows"] == expected
        assert payload["footer"]["max_abs_diff"] == float(max_diff)
        assert payload["footer"]["lower_mass"] == lower_mass

    def test_binomial_column_matches_per_row_pmf(self, tmp_path):
        for n, p in [(0, 0.3), (1, 0.5), (20, 0.3), (60, 0.9), (61, 0.07), (300, 0.41)]:
            code, payload = run_json(tmp_path, ["family", "binomial", "--n", str(n), "--p", repr(p)])
            assert code == 0
            rep = spin.build_spin_rep(n / 2.0)
            point = spin.sphere_point_for_probability(p)
            # oracle: one spin.binomial_pmf call per outcome, under the row rule of the Poisson loop above
            expected, cumulative, lower_mass = [], 0.0, 0.0
            for k in range(n + 1):
                pmf = spin.binomial_pmf(rep, point, k - rep.j)
                cumulative += pmf
                if cumulative < 1e-12:
                    lower_mass = cumulative
                    continue
                expected.append((k, pmf))
                if cumulative >= 1.0 - 1e-12:
                    break
            assert [(row["outcome"], row["pmf"]) for row in payload["rows"]] == expected
            assert payload["footer"]["lower_mass"] == lower_mass

    def test_a_truncation_below_the_mass_keeps_one_row(self, tmp_path):
        # with tail_tol 1, 5 levels hold 1.6e-37 of the Poisson(100) mass, never 1e-12 of it: the last level is the row
        config = tmp_path / "config.json"
        config.write_text('{"tail_tol": 1.0}')
        argv = ["family", "poisson", "--lambda", "100", "--trunc", "5", "--config", str(config)]
        code, payload = run_json(tmp_path, argv)
        assert code == 0
        assert [row["outcome"] for row in payload["rows"]] == [4]
        assert 0.0 < payload["footer"]["lower_mass"] < 1e-38

    def test_a_truncation_below_the_window_keeps_every_outcome(self, tmp_path):
        # with tail_tol 1, 60 levels hold 6.6e-65 of the Poisson(300) mass, all below the window's low end
        # (64): the table is that of the whole truncation, its one row and lower_mass as before the window
        config = tmp_path / "config.json"
        config.write_text('{"tail_tol": 1.0}')
        argv = ["family", "poisson", "--lambda", "300", "--trunc", "60", "--config", str(config)]
        code, payload = run_json(tmp_path, argv)
        assert code == 0
        alpha = math.sqrt(300.0)
        state = fock.coherent_closed_form(alpha, fock.FockSpace(60), tail_tol=1.0).vector.vector
        expected = {"outcome": 59, "probability": abs(state[59]) ** 2, "pmf": fock.poisson_pmf(alpha, 59)}
        assert payload["rows"] == [expected]
        assert payload["footer"]["lower_mass"] == 1.2776059704499218e-65

    def test_binomial_past_the_overflow_matches_scipy(self, tmp_path):
        # sqrt C(3000, k) overflows from k = 547, far outside the window [0, 141) around np = 30
        code, payload = run_json(tmp_path, ["family", "binomial", "--n", "3000", "--p", "0.01"])
        assert code == 0
        rows = payload["rows"]
        outcomes = np.array([row["outcome"] for row in rows])
        reference = binom.pmf(outcomes, 3000, 0.01)
        for column in ("probability", "pmf"):
            assert np.abs(np.array([row[column] for row in rows]) - reference).max() <= 1e-12

    @staticmethod
    def _assert_rows_carry_the_mass(payload, probabilities, pmf):
        """The rows are the contiguous slice of the full table from the first outcome whose cumulative
        pmf reaches 1e-12 to the first whose cumulative pmf reaches 1 - 1e-12, one row at least: the rows,
        ``pmf`` and ``lower_mass`` equal the full table's, ``probability`` equals ``probabilities`` at the rows."""
        rows = {key: column.tolist() for key, column in payload["rows"].items()}  # the columns are arrays
        lower_mass = payload["footer"]["lower_mass"]
        first, size = rows["outcome"][0], len(rows["outcome"])
        assert size >= 1
        assert rows["outcome"] == list(range(first, first + size))
        assert lower_mass < 1e-12 <= lower_mass + rows["pmf"][0]
        assert lower_mass == (float(np.cumsum(pmf)[first - 1]) if first else 0.0)
        assert rows["probability"] == probabilities[first:first + size].tolist()
        assert rows["pmf"] == pmf[first:first + size].tolist()
        reached = np.cumsum(pmf[:first + size]) >= 1.0 - 1e-12
        assert not reached[:-1].any() and (reached[-1] or first + size == pmf.size)

    # rates log-uniform over [1e-3, 1e6], so that most examples are cheap, and both ends of [0, 1e6]
    @settings(max_examples=20, deadline=None)
    @example(0.0)
    @example(1e6)
    @given(st.floats(-3.0, 6.0).map(lambda e: 10.0**e))
    def test_poisson_rows_are_the_outcomes_that_carry_mass(self, lam):
        payload = cli._family_poisson(RunConfig(), lam)
        alpha = math.sqrt(lam)
        trunc = fock.default_truncation(alpha)
        # the probabilities are the closed-form amplitudes on the window, renormalised there
        lo, hi = cli._poisson_window(alpha**2, trunc)
        state = pv_measure.VectorState.from_unnormalized(fock.coherent_magnitudes(alpha, np.arange(lo, hi)))
        window = np.zeros(trunc)
        window[lo:hi] = np.abs(state.vector) ** 2
        self._assert_rows_carry_the_mass(payload, window, fock._poisson_weight(alpha**2, np.arange(trunc)))
        # renormalised on the whole truncation instead, they differ only by the rounding of the two norms
        full = np.abs(fock.coherent_closed_form(alpha, fock.FockSpace(trunc)).vector.vector) ** 2
        outcomes, probabilities = payload["rows"]["outcome"], payload["rows"]["probability"]
        assert np.all(np.abs(probabilities - full[outcomes]) <= 16 * np.finfo(float).eps * full[outcomes])

    @settings(max_examples=50, deadline=None)
    @example(0, 0.3)
    @example(2000, 0.0)
    @given(st.integers(0, 2000), st.floats(0.0, 1.0, exclude_max=True))
    def test_binomial_rows_are_the_outcomes_that_carry_mass(self, n, p):
        payload = cli._family_binomial(RunConfig(), n, p)
        point = spin.sphere_point_for_probability(p)
        probabilities = np.abs(spin.spin_coherent_closed_form(spin.SpinRep(two_j=n), point).vector) ** 2
        pmf = spin._binomial_weight(n, np.arange(n + 1), math.sin(point.theta / 2.0) ** 2)
        self._assert_rows_carry_the_mass(payload, probabilities, pmf)

    # the full kernel outside the window, each side summed outward until a chunk of outcomes underflows to
    # 0.0: the pmf falls away from its mode, so every outcome past that chunk is 0.0 too
    @staticmethod
    def _mass_outside(weight, lo, hi, chunk=2**16):
        below, above = [], []
        for start in range(lo, 0, -chunk):
            below.append(math.fsum(weight(np.arange(max(start - chunk, 0), start)).tolist()))
            if below[-1] == 0.0:
                break
        while True:
            above.append(math.fsum(weight(np.arange(hi, hi + chunk)).tolist()))
            hi += chunk
            if above[-1] == 0.0:
                return math.fsum(below), math.fsum(above)

    # rates log-uniform over [1e-3, 4e6] and both ends of [0, 4e6]; the window is not clipped by a truncation
    @settings(max_examples=30, deadline=None)
    @example(0.0)
    @example(4e6)
    @given(st.floats(-3.0, math.log10(4e6)).map(lambda e: 10.0**e))
    def test_poisson_window_leaves_out_at_most_1e_40_on_each_side(self, lam):
        lo, hi = cli._poisson_window(lam, 2**62)
        below, above = self._mass_outside(functools.partial(fock._poisson_weight, lam), lo, hi)
        assert below <= 1e-40 and above <= 1e-40

    @settings(max_examples=100, deadline=None)
    @example(2000, 0.5)
    @example(2000, 0.0)
    @example(1, 0.9999999999999999)
    @given(st.integers(0, 2000), st.floats(0.0, 1.0, exclude_max=True))
    def test_binomial_window_leaves_out_at_most_1e_40_on_each_side(self, n, p):
        lo, hi = cli._binomial_window(n, p)
        pmf = spin._binomial_weight(n, np.arange(n + 1), p)
        assert 0 <= lo < hi <= n + 1
        assert math.fsum(pmf[:lo].tolist()) <= 1e-40 and math.fsum(pmf[hi:].tolist()) <= 1e-40

    # The state's norm is numpy's pairwise sum, not a threaded BLAS dot: at these rates the norm by
    # np.linalg.norm, and so every probability, differed in the last place between one and two threads
    @pytest.mark.parametrize("lam", ["2e4", "1e5"])
    def test_poisson_bytes_do_not_depend_on_blas_threads(self, lam):
        assert len({stdout_at_blas_threads(["family", "poisson", "--lambda", lam], n) for n in "12"}) == 1


class TestInferCommand:
    def test_poisson_vacuum(self, tmp_path):
        code, payload = run_json(tmp_path, ["infer", "poisson", "--observed", "0"])
        assert code == 0
        rows = payload["rows"]
        for row in rows[:50]:
            assert row["density_analytic"] == pytest.approx(math.exp(-row["parameter"]), abs=1e-14)
        footer = payload["footer"]
        assert abs(footer["total_mass_pov"] - 1.0) < 1e-6
        assert footer["sup_abs_diff"] < 1e-8
        assert len(footer["credible_intervals"]) == 3

    def test_binomial_single_success(self, tmp_path):
        code, payload = run_json(tmp_path, ["infer", "binomial", "--n", "2", "--k", "1"])
        assert code == 0
        mid = payload["rows"][len(payload["rows"]) // 2]
        assert mid["parameter"] == pytest.approx(0.5)
        assert mid["density_analytic"] == pytest.approx(1.5, abs=1e-12)
        assert payload["footer"]["sup_abs_diff"] < 1e-10

    def test_binomial_uniform_posterior(self, tmp_path):
        code, payload = run_json(tmp_path, ["infer", "binomial", "--n", "0", "--k", "0"])
        assert code == 0
        densities = {row["density_pov"] for row in payload["rows"]}
        assert all(abs(d - 1.0) < 1e-12 for d in densities)

    def test_half_million_point_posterior_peak_memory(self, tmp_path):
        # 2**19 grid points written in blocks of cli._VECTOR_CHUNK_ROWS rows: 240 MB and 1.5 s in a fresh
        # process (one BLAS thread), where the per-row template peaked at 438 MB in 3.7 s
        config = tmp_path / "config.json"
        config.write_text('{"lambda_points": 524288}')
        assert peak_rss_kb(["infer", "poisson", "--observed", "500", "--config", str(config)]) < 400 * 1024

    # every output reduction of infer is numpy's own (sums, maxima), none a threaded BLAS product
    @pytest.mark.parametrize("argv", ["poisson --observed 500", "binomial --n 2000 --k 892"])
    def test_bytes_do_not_depend_on_blas_threads(self, argv):
        assert len({stdout_at_blas_threads(["infer", *argv.split()], n) for n in "12"}) == 1

    def test_invalid_observed_exit_2(self, capsys):
        assert main(["infer", "poisson", "--observed", "-1"]) == 2
        assert main(["infer", "binomial", "--n", "2", "--k", "3"]) == 2
        capsys.readouterr()
        for argv, limit in (
            (["poisson", "--observed", str(10**22)], "9223372036854775807 counts"),
            (["poisson", "--observed", str(10**400)], "9223372036854775807 counts"),
            (["binomial", "--n", str(10**400), "--k", "1"], "32768 trials"),
        ):
            assert main(["infer", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"past the limit of {limit}" in err and err.count("\n") == 1

    def test_unresolved_quadrature_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(inference, "RADIAL_NODES", 4)
        assert main(["infer", "poisson", "--observed", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: quadrature mass")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("observed", [2100, 20000, 10**5, 10**6])
    def test_large_counts_match_gamma(self, tmp_path, observed):
        # the radial rule sits on the window of the count, so its size does not grow with it
        start = time.perf_counter()
        code, payload = run_json(tmp_path, ["infer", "poisson", "--observed", str(observed)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        parameter = np.array([row["parameter"] for row in payload["rows"]])
        density = np.array([row["density_pov"] for row in payload["rows"]])
        assert np.abs(density - gamma.pdf(parameter, observed + 1)).max() < 1e-8
        footer = payload["footer"]
        assert abs(footer["total_mass_pov"] - 1.0) < 1e-12
        assert abs(footer["total_mass_analytic"] - 1.0) < 1e-12

    @pytest.mark.parametrize("trunc", ["2", "70"])
    def test_poisson_inference_reads_no_truncation(self, tmp_path, trunc):
        code, reference = run_json(tmp_path, INFER_3, name="reference.json")
        assert code == 0
        code, payload = run_json(tmp_path, [*INFER_3, "--trunc", trunc])
        assert code == 0
        assert payload["config"].pop("trunc") == int(trunc)
        reference["config"].pop("trunc")
        assert payload == reference

    @pytest.mark.parametrize("n", [2**15 + 1, 10**8, 10**12])
    def test_binomial_past_the_trial_limit_is_a_usage_error(self, monkeypatch, capsys, n):
        def refuse(k, family, grid):
            raise AssertionError(f"a posterior of {family.dim - 1} trials computed for a refused n")

        monkeypatch.setattr(inference, "infer_via_pov", refuse)
        assert main(["infer", "binomial", "--n", str(n), "--k", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "limit of 32768 trials" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [500, 1000, 2000])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_binomial_matches_beta_on_the_polar_window(self, tmp_path, n, position):
        k = {"first": 0, "middle": n // 2, "last": n}[position]
        code, payload = run_json(tmp_path, ["infer", "binomial", "--n", str(n), "--k", str(k)])
        assert code == 0
        grid = np.array([row["parameter"] for row in payload["rows"]])
        density = np.array([row["density_pov"] for row in payload["rows"]])
        assert np.abs(density - beta.pdf(grid, k + 1, n - k + 1)).max() < 1e-10
        footer = payload["footer"]
        assert abs(footer["total_mass_pov"] - 1.0) < 1e-12
        assert abs(footer["total_mass_analytic"] - 1.0) < 1e-12

    # ids read n-k-exit code for the binomial cases
    @pytest.mark.parametrize(
        "argv, expected",
        [
            pytest.param("binomial --n 32768 --k 5", 1, id="32768-5-1"),
            pytest.param("binomial --n 2000 --k 1000", 0, id="2000-1000-0"),
            pytest.param("poisson --observed 100000000", 0, id="poisson-100000000-0"),
        ],
    )
    def test_binomial_rules_do_not_grow_with_n(self, monkeypatch, argv, expected):
        # every POV and analytic mass sits on the window of the count, and no product rule is built
        sizes = []
        build = inference._gauss_legendre

        def spy(size):
            sizes.append(size)
            return build(size)

        def refuse(*args):
            raise AssertionError("infer built a product quadrature rule")

        monkeypatch.setattr(inference, "_gauss_legendre", spy)
        monkeypatch.setattr(inference, "plane_quadrature", refuse)
        monkeypatch.setattr(inference, "sphere_quadrature", refuse)
        start = time.perf_counter()
        assert main(["infer", *argv.split(), "--out", os.devnull]) == expected
        assert time.perf_counter() - start < 0.5
        assert sizes and max(sizes) <= inference.RADIAL_NODES

    def test_binomial_evaluates_one_binomial_per_kernel_call(self, monkeypatch):
        # infer_via_pov reads the magnitude of the observed k alone, so no call evaluates other counts
        sizes = []
        terms = spin._binomial_terms

        def spy(n, k, p):
            sizes.append(np.size(k))
            return terms(n, k, p)

        monkeypatch.setattr(spin, "_binomial_terms", spy)
        assert main(["infer", "binomial", "--n", "2000", "--k", "1000", "--out", os.devnull]) == 0
        assert sizes and max(sizes) == 1

    def test_large_binomial_posterior(self, tmp_path):
        code, payload = run_json(tmp_path, ["infer", "binomial", "--n", "1000", "--k", "300"])
        assert code == 0
        grid = np.array([row["parameter"] for row in payload["rows"]])
        density = np.array([row["density_pov"] for row in payload["rows"]])
        assert np.abs(density - beta.pdf(grid, 301, 701)).max() <= 1e-10


class TestVerifyCommand:
    def test_example12_report(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "--check", "example12"])
        assert code == 0
        assert all(row["status"] == "pass" for row in payload["rows"])
        assert payload["footer"]["all_pass"] is True

    def test_bch_default_parameters(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "--check", "bch"])
        assert code == 0
        row = payload["rows"][0]
        assert row["residual"] < 1e-10
        assert row["threshold"] == 1e-10

    def test_identity_includes_spin_two(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "--check", "identity"])
        assert code == 0
        spin_two = [row for row in payload["rows"] if row["params"] == "spin j=2.0"]
        assert len(spin_two) == 1
        assert spin_two[0]["residual"] < 1e-12

    def test_failing_check_exits_1(self, tmp_path):
        # undersized truncation makes the bch residual blow past threshold
        out = tmp_path / "fail.json"
        code = main(["verify", "--check", "bch", "--alpha", "3", "--trunc", "16", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["status"] == "fail"

    def test_tol_overrides_threshold(self, tmp_path):
        out = tmp_path / "loose.json"
        args = ["verify", "--check", "bch", "--alpha", "3", "--trunc", "16", "--tol", "100"]
        assert main([*args, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["threshold"] == 100.0
        assert payload["rows"][0]["status"] == "pass"

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("trunc", [64, 128, 512])
    def test_translation_matches_dense_exponentials(self, tmp_path, trunc, seed):
        args = ["verify", "--check", "translation", "--trunc", str(trunc), "--seed", str(seed)]
        code, payload = run_json(tmp_path, args)
        assert code == 0
        assert payload["footer"] == {"all_pass": True, "n_checks": 10}
        # the same draws as the CLI; the params strings show they match
        rng = np.random.default_rng(seed)
        pairs = [
            tuple(2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(2))
            for _ in range(10)
        ]
        for row, (a, b) in zip(payload["rows"], pairs):
            assert row["params"] == f"alpha={cli._fmt_complex(a)} beta={cli._fmt_complex(b)} trunc={trunc}"
            assert row["residual"] < 1e-13
        rep = fock.build_ladder(trunc)

        def dense(z):
            return scipy.linalg.expm(z * rep.creation - np.conjugate(z) * rep.annihilation)

        # a dense 512x512 exponential takes about a second: seed 0's first pair stands for that size
        dense_pairs = 10 if trunc < 512 else int(seed == 0)
        for row, (a, b) in zip(payload["rows"][:dense_pairs], pairs):
            inner = np.vdot(dense(a + b)[:, 0], dense(b) @ dense(a)[:, 0])
            overlap, phase = fock.displacement_translation_check(a, b, rep)
            assert abs(overlap - abs(inner)) < 1e-13
            assert abs(phase - inner / abs(inner)) < 1e-13
            expected = np.exp(1j * (b * np.conjugate(a)).imag)
            dense_residual = max(abs(abs(inner) - 1.0), abs(inner / abs(inner) - expected))
            assert abs(row["residual"] - dense_residual) < 1e-13

    def test_unknown_check_exits_2(self, capsys):
        assert main(["verify", "--check", "nonsense"]) == 2
        assert "unknown check" in capsys.readouterr().err

    # dense trunc x trunc matrices at 10**6 levels would need terabytes: refused before any is built
    @pytest.mark.parametrize("check", ["ladder", "bch", "translation"])
    @pytest.mark.parametrize("trunc", [4097, 10**6])
    def test_trunc_past_the_limit_is_a_usage_error(self, monkeypatch, capsys, check, trunc):
        def refuse(dim):
            raise AssertionError(f"a {dim}-level Fock space built for a refused trunc")

        monkeypatch.setattr(cli.fock, "build_ladder", refuse)
        assert main(["verify", "--check", check, "--trunc", str(trunc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "limit of 4096 levels" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "nan+1j", "1+infj"])
    def test_non_finite_alpha_is_a_usage_error(self, monkeypatch, capsys, alpha):
        def refuse(alpha, rep):
            raise AssertionError(f"bch_check ran for a refused alpha {alpha}")

        monkeypatch.setattr(cli.fock, "bch_check", refuse)
        assert main(["verify", "--check", "bch", f"--alpha={alpha}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--alpha" in err
        assert err.count("\n") == 1

    # a finite alpha whose bch sides overflow double precision is a numerical failure, with no output
    @pytest.mark.parametrize("trunc", [None, 256])
    @pytest.mark.parametrize("alpha", ["1e10", "3e153", "1e155", "1e200", "1e200j"])
    def test_overflowing_alpha_is_a_numerical_failure(self, capsys, alpha, trunc):
        argv = ["verify", "--check", "bch", f"--alpha={alpha}"] + ([] if trunc is None else ["--trunc", str(trunc)])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1
        assert f"|alpha|={abs(complex(alpha)):g} trunc={trunc or 64}" in captured.err

    # alpha 4.4 is too large for 64 levels, but its residual stays finite: a fail row, not a numerical failure
    def test_under_truncated_alpha_is_a_finite_fail_row(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "--check", "bch", "--alpha=4.4", "--trunc", "64"])
        assert code == 1
        row = payload["rows"][0]
        assert row["status"] == "fail" and math.isfinite(row["residual"])

    # 3 levels are too few for the sampled displacements, but their residuals stay finite: fail rows,
    # not a numerical failure, beside every other row of the run
    @pytest.mark.parametrize(
        "check, n_rows, failing",
        [("translation", 10, {"translation"}), ("all", 43, {"bch", "translation"})],
        ids=["translation", "all"],
    )
    def test_under_truncated_translation_is_a_finite_fail_row(self, tmp_path, check, n_rows, failing):
        code, payload = run_json(tmp_path, ["verify", "--check", check, "--trunc", "3"])
        assert code == 1
        rows = payload["rows"]
        assert len(rows) == n_rows and all(math.isfinite(row["residual"]) for row in rows)
        assert all(row["status"] == "fail" for row in rows if row["check"] == "translation")
        assert {row["check"] for row in rows if row["status"] == "fail"} == failing

    # --tol is the one gate of every residual: it is each row's threshold, and a run whose residuals
    # all lie below it exits 0; translation at 32 levels has residuals up to 2.1e-8, past its 1e-8 default
    @pytest.mark.parametrize("check", cli.VERIFY_CHECKS)
    def test_tol_gates_every_residual(self, tmp_path, check):
        code, payload = run_json(tmp_path, ["verify", "--check", check, "--trunc", "32", "--tol", "1e-7"])
        assert code == 0
        for row in payload["rows"]:
            assert row["threshold"] == 1e-7
            assert row["residual"] < 1e-7 and row["status"] == "pass"

    # the position spectrum is computed once per size and process, not once per run or displacement
    def test_translation_makes_one_eigendecomposition(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(np.shape(m))
            return eigh(m)

        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", counting)
        fock._position_spectrum.cache_clear()
        for _ in range(2):
            assert main(["verify", "--check", "translation", "--trunc", "128", "--out", os.devnull]) == 0
        assert calls == [(128, 128)]

    # the cached spectra change no byte: a run with cold caches prints what a run with warm ones does
    def test_cached_spectra_leave_stdout_unchanged(self, capsys):
        argv = ["verify", "--check", "all", "--seed", "3"]
        fock._position_spectrum.cache_clear()
        spin._j1_spectrum.cache_clear()
        spin._j_plus_exponential.cache_clear()
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    # the ladder rows read the band of A; their residuals are those of the dense products bit for bit
    @pytest.mark.parametrize("trunc", [2, 3, 17, 256, 512])
    def test_ladder_rows_equal_dense_products(self, trunc):
        rep = fock.build_ladder(trunc)
        a, number = rep.annihilation, rep.number
        truncated_identity = np.eye(trunc)
        truncated_identity[-1, -1] = -(trunc - 1.0)
        relations = float(np.abs(number - a.T @ a).max())
        commutation = float(np.abs(a @ a.T - a.T @ a - truncated_identity).max())
        rows = cli._check_ladder(RunConfig(trunc=trunc))
        assert [row["residual"] for row in rows[:2]] == [relations, commutation]

    # besides A and N themselves, the ladder rows build no trunc x trunc array
    def test_ladder_rows_build_no_dense_product(self):
        trunc = 512
        tracemalloc.start()
        try:
            cli._check_ladder(RunConfig(trunc=trunc))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * trunc * trunc * 8

    # an entry off the band of A, or off the diagonal of N, fails the relations row (exit 1)
    @pytest.mark.parametrize("matrix, entry", [("annihilation", (0, 0)), ("annihilation", (9, 4)),
                                               ("annihilation", (0, 15)), ("number", (3, 4))])
    def test_ladder_check_fails_on_a_stray_entry(self, monkeypatch, tmp_path, matrix, entry):
        build = getattr(fock.FockSpace, matrix).fget

        def with_stray(space):
            m = build(space)
            m[entry] = 0.5
            return m

        monkeypatch.setattr(fock.FockSpace, matrix, property(with_stray))
        code, payload = run_json(tmp_path, ["verify", "--check", "ladder", "--trunc", "16"])
        assert code == 1
        relations = payload["rows"][0]
        assert relations["params"] == "relations trunc=16" and relations["status"] == "fail"

    # Seeded defects: each must fail at least one row of its check (exit 1) against the unchanged default
    # threshold, at the default seed.  The residuals each defect produced are named beside it.
    def _fail_rows(self, tmp_path, check):
        code, payload = run_json(tmp_path, ["verify", "--check", check])
        assert code == 1
        return [row["params"] for row in payload["rows"] if row["status"] == "fail"]

    # gauss, 1e-9: the middle level of J+ dropped before the cached exp(J+) is formed; all 20 rows fail,
    # residuals 6.5e-2 to 1.7e3
    def test_gauss_fails_on_a_dropped_level(self, monkeypatch, tmp_path):
        exponential = spin.matrix_exponential

        def dropped(m):
            m = np.array(m)
            level = (m.shape[0] - 1) // 2
            m[level + 1, level] = 0.0
            return exponential(m)

        monkeypatch.setattr(spin, "matrix_exponential", dropped)
        spin._j_plus_exponential.cache_clear()
        try:
            assert self._fail_rows(tmp_path, "gauss")
        finally:
            spin._j_plus_exponential.cache_clear()

    # gauss, 1e-9: the rotation's phase sign flipped (gamma -> -gamma in rotation_matrix); all 20 rows
    # fail, residuals 1.8e-2 to 2.0
    def test_gauss_fails_on_a_flipped_rotation_phase(self, monkeypatch, tmp_path):
        rotation = spin.rotation_matrix

        def flipped(rep, point):
            return rotation(rep, spin.SpherePoint(point.theta, -point.gamma % (2.0 * math.pi)))

        monkeypatch.setattr(spin, "rotation_matrix", flipped)
        assert self._fail_rows(tmp_path, "gauss")

    # translation, 1e-8: the sign of wh_multiply's twist flipped, so the expected phase is conjugated;
    # all 10 rows fail, residuals 0.158 to 1.96
    def test_translation_fails_on_a_flipped_twist(self, monkeypatch, tmp_path):
        def flipped(g1, g2):
            twist = (g1.alpha * g2.alpha.conjugate()).imag
            return fock.WHGroupElement(s=g1.s + g2.s - twist, alpha=g1.alpha + g2.alpha)

        monkeypatch.setattr(fock, "wh_multiply", flipped)
        assert len(self._fail_rows(tmp_path, "translation")) == 10

    # identity, 1e-12: 2j azimuthal nodes in the sphere rule in place of 4j + 1, so lag 2j aliases onto
    # lag 0; the 4 spin rows fail, residuals 4.0e-3 (j=5) to 0.80 (j=1/2)
    def test_identity_fails_on_too_few_sphere_angles(self, monkeypatch, tmp_path):
        build = inference.sphere_quadrature

        def aliased(j):
            n = spin._as_two_j(j)
            angles = 2.0 * math.pi * np.arange(n) / n
            return dataclasses.replace(build(j), angle_nodes=angles, angle_weights=np.full(n, 2.0 * math.pi / n))

        monkeypatch.setattr(inference, "sphere_quadrature", aliased)
        assert self._fail_rows(tmp_path, "identity") == ["spin j=0.5", "spin j=1.0", "spin j=2.0", "spin j=5.0"]

    # identity, 1e-8: 19 angle nodes in the plane rule, so the top lag 19 of the 20-element block
    # aliases onto lag 0; the plane row fails, residual 3.2e-3
    def test_identity_fails_on_too_few_plane_angles(self, monkeypatch, tmp_path):
        build = inference.plane_quadrature
        monkeypatch.setattr(inference, "plane_quadrature", lambda interval, n_r, n_angle: build(interval, n_r, 19))
        failing = self._fail_rows(tmp_path, "identity")
        assert len(failing) == 1 and failing[0].startswith("plane ")

    # example12, 1e-14: 1e-13 moved along the first projector's diagonal, from its last entry to its
    # first; the xi row fails (5.7e-14) and so does the seeded family row (3.6e-14 to 1.0e-13 over seeds
    # 0-199), whose first and last levels differ in weight by cos(theta); psi0, whose first and last levels
    # weigh the same, passes
    def test_example12_fails_on_a_projector_off_by_1e_13(self, monkeypatch, tmp_path):
        build = cli.pv_from_observable

        def shifted(matrix):
            pv = build(matrix)
            first = pv.projectors[0].copy()
            first[0, 0] += 1e-13
            first[-1, -1] -= 1e-13
            return pv_measure.FinitePVMeasure(pv.outcomes, (first, *pv.projectors[1:]))

        monkeypatch.setattr(cli, "pv_from_observable", shifted)
        failing = self._fail_rows(tmp_path, "example12")
        assert len(failing) == 2 and failing[0].startswith("state=xi ") and failing[1].startswith("state=family ")

    # bch, 1e-10: the commutator's 1/2 dropped, exp([O1, O2]) in place of exp([O1, O2] / 2); its one
    # row fails, residual 1.07
    def test_bch_fails_on_a_dropped_half(self, monkeypatch, tmp_path):
        exponential = fock.matrix_exponential

        def doubled_diagonal(m):
            m = np.asarray(m)
            if np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)):
                m = 2.0 * m
            return exponential(m)

        monkeypatch.setattr(fock, "matrix_exponential", doubled_diagonal)
        assert len(self._fail_rows(tmp_path, "bch")) == 1


# per limit of cli._LIMITS: a small value set in its place, so that runs at it are cheap and exit 0, and the
# argvs of a run at a size; the rows limit also bounds the 2001 default lambda_points of every command
LIMIT_RUNS = {
    "rows": (2001, [lambda size: ["family", "binomial", "--n", str(size - 1), "--p", "0.5"],
                 lambda size: ["family", "poisson", "--lambda", "1e-4", "--trunc", str(size)]]),
    "trials": (20, [lambda size: ["infer", "binomial", "--n", str(size), "--k", "7"]]),
    "verify trunc": (16, [lambda size: ["verify", "--check", "ladder", "--trunc", str(size)]]),
    "observed count": (3, [lambda size: ["infer", "poisson", "--observed", str(size)]]),
}
# the functions that do the work of those runs: a run past a limit reaches none of them
WORK = [(fock, "_checked_tail"), (fock, "_poisson_weight"), (fock, "coherent_magnitudes"),
        (spin, "coherent_magnitudes"), (spin, "_binomial_weight"), (inference, "infer_via_pov"), (fock, "build_ladder")]


class TestLimits:
    @pytest.mark.parametrize("name", cli._LIMITS)
    def test_limit_admits_sizes_up_to_it(self, monkeypatch, capsys, name):
        value, argvs = LIMIT_RUNS[name]
        monkeypatch.setitem(cli._LIMITS[name], "value", value)
        for argv in argvs:
            assert main([*argv(value), "--out", os.devnull]) == 0, argv(value)

        def refuse(*args, **kwargs):
            raise AssertionError(f"a run past the {name} limit did its work")

        for module, work in WORK:
            monkeypatch.setattr(module, work, refuse)
        capsys.readouterr()
        for argv in argvs:
            assert main([*argv(value + 1), "--out", os.devnull]) == 2, argv(value + 1)
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert err.endswith(" past the limit of {value} {bounds}\n".format_map(cli._LIMITS[name]))


class TestOutputFormats:
    def test_csv_family(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["family", "poisson", "--lambda", "1", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "outcome,probability,pmf"
        assert lines[1].startswith("0,0.36787944117144233")
        assert any(line.startswith("# max_abs_diff=") for line in lines)

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "binomial", "--n", "20", "--p", "0.3"],
            ["infer", "poisson", "--observed", "3"],
            ["verify", "--check", "example12"],
        ],
        ids=["family", "infer", "verify"],
    )
    def test_csv_reads_back_as_json(self, tmp_path, argv):
        code, payload = run_json(tmp_path, argv)
        out = tmp_path / "table.csv"
        assert main([*argv, "--format", "csv", "--out", str(out)]) == code
        lines = out.read_text().splitlines()
        header, *body = [line.split(",") for line in lines if not line.startswith("# ")]
        rows = payload["rows"]
        assert header == list(rows[0])
        assert len(body) == len(rows)
        assert all(len(cells) == len(header) for cells in body)
        read = [{key: read_back(cell, row[key]) for key, cell in zip(header, cells)} for cells, row in zip(body, rows)]
        assert read == rows

        footer = {}
        for line in lines:
            if line.startswith("# credible_interval "):
                record = dict(field.split("=") for field in line.split()[2:])
                footer.setdefault("credible_intervals", []).append(record)
            elif line.startswith("# "):
                key, text = line[2:].split("=", 1)
                footer[key] = text
        assert list(footer) == list(payload["footer"])
        for key, value in payload["footer"].items():
            if key == "credible_intervals":
                assert [{k: float(v) for k, v in record.items()} for record in footer[key]] == value
            else:
                assert read_back(footer[key], value) == value

    def test_cached_parser_matches_a_fresh_one(self, monkeypatch, capsys):
        # each flag run is followed by the same command without it, so a value
        # left behind in the shared parser would show in the second output
        family = ["family", "poisson", "--lambda", "4"]
        bch = ["verify", "--check", "bch"]
        sequence = [
            [*family, "--trunc", "70"],
            family,
            [*bch, "--alpha=2+0j"],
            bch,
            [*family, "--format", "csv"],
            family,
        ]

        def run_all():
            return [(main(argv), capsys.readouterr()) for argv in sequence]

        assert cli._build_parser() is cli._build_parser()
        cached = run_all()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert run_all() == cached
        assert json.loads(cached[1][1].out)["config"]["trunc"] is None

    def test_stdout_default(self, capsys):
        assert main(["family", "poisson", "--lambda", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "family"

    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-directory", "directory"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, target):
        out = tmp_path / target
        assert main(["verify", "--check", "example12", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write output to {out}: ")
        assert captured.err.count("\n") == 1

    def test_a_failed_write_leaves_the_file_as_it_was(self, tmp_path):
        # a file-size limit of 4096 bytes fails the write of a 60 kB table partway through
        out = tmp_path / "table.json"
        out.write_text("before\n")
        code = (
            "import resource, signal, sys\n"
            "from cohstat.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))\n"
            "sys.exit(main(['family', 'poisson', '--lambda', '5000', '--out', sys.argv[1]]))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cohstat.__file__).parent.parent))
        result = subprocess.run([sys.executable, "-c", code, str(out)], env=env, capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: cannot write output to {out}: [Errno 27] File too large")
        assert result.stderr.count("\n") == 1
        assert out.read_text() == "before\n"
        assert list(tmp_path.iterdir()) == [out]
        # without the limit the table replaces the file whole, and no other file is left
        assert main(["family", "poisson", "--lambda", "5000", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == "family"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize(
        "argv",
        [
            ["infer", "poisson", "--observed", "200"],
            ["family", "poisson", "--lambda", "1000"],
            ["verify", "--check", "all"],
        ],
        ids=["infer", "family", "verify"],
    )
    def test_stdout_is_indented_json_dumps(self, monkeypatch, capsys, argv):
        payloads = []
        render = cli._render_json
        monkeypatch.setattr(cli, "_render_json", lambda payload: payloads.append(payload) or render(payload))
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps(as_records(payloads[0]), indent=2) + "\n"

    def test_config_echoed(self, tmp_path):
        code, payload = run_json(tmp_path, ["family", "poisson", "--lambda", "1", "--trunc", "70"])
        assert code == 0
        assert payload["config"]["trunc"] == 70
        assert payload["config"]["format"] == "json"
        assert "out" not in payload["config"]


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
TRICKY_TEXT = [", ", '", "', '"', "\\", "\n", "\u2028", "naïve ✓ 𝜆", "%s %% %", ""]

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
texts = st.text() | st.sampled_from(TRICKY_TEXT)
numbers = st.one_of(floats, st.integers(), st.booleans(), st.none())
scalars = numbers | texts
# one strategy per column: uniform columns take the whole-column path, mixed ones the per-cell path
column_cells = st.sampled_from([floats, st.integers(), st.booleans(), st.none(), texts, numbers, scalars])
json_values = st.recursive(
    scalars, lambda children: st.lists(children, max_size=3) | st.dictionaries(texts, children, max_size=3), max_leaves=8
)


@st.composite
def payloads(draw):
    keys = draw(st.lists(texts, unique=True, max_size=5))
    length = draw(st.integers(0, 6))
    rows = {key: draw(st.lists(draw(column_cells), min_size=length, max_size=length)) for key in keys}
    items = list(draw(st.dictionaries(texts.filter(lambda key: key != "rows"), json_values, max_size=4)).items())
    items.insert(draw(st.integers(0, len(items))), ("rows", rows))
    return dict(items)


class TestJsonRenderer:
    @settings(max_examples=300, deadline=None)
    @given(payloads())
    def test_equals_indented_json_dumps(self, payload):
        assert cli._render_json(payload) == json.dumps(as_records(payload), indent=2)

    @pytest.mark.parametrize(
        "rows",
        [
            {},
            {"a": [], "b": []},
            {"x": SPECIAL_FLOATS},
            {"text": TRICKY_TEXT, "n": list(range(len(TRICKY_TEXT)))},
            {"mixed": [1.5, ", ", None, True]},
            {"wide": [np.float64(0.1)], "int": [2**70]},
        ],
    )
    def test_edge_rows(self, rows):
        payload = {"schema_version": 1, "rows": rows, "footer": {"note": "a\nb", "levels": [0.5, 0.9]}}
        assert cli._render_json(payload) == json.dumps(as_records(payload), indent=2)

    @pytest.mark.parametrize(
        "rows",
        [
            {"a": [1, 1], "b": [2]},
            {"a": [], "b": [2]},
            {1: [0.5]},
            {"a": [[1.0]]},
            {"a": [{"b": 1}]},
            {"a": [np.float32(0.5)]},
        ],
    )
    def test_refuses_rows_it_cannot_write_exactly(self, rows):
        with pytest.raises(ValueError):
            cli._render_json({"rows": rows})


class TestImportPath:
    def _fresh(self, code: str) -> str:
        env = dict(os.environ, PYTHONPATH=str(Path(cohstat.__file__).parent.parent))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return result.stdout.strip()

    # A meta-path finder first in line that refuses scipy and its submodules: an import of them
    # raises ImportError, as in an install without scipy, and leaves no "scipy" key in sys.modules.
    _BLOCK_SCIPY = (
        "import sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
    )

    def _scipy_modules_after(self, argv: str) -> str:
        """The scipy modules loaded by a fresh process, scipy blocked, that runs ``main(argv)``; it must exit 0."""
        code = self._BLOCK_SCIPY + (
            "import os, cohstat.cli\n"
            f"assert cohstat.cli.main({argv.split()!r} + ['--out', os.devnull]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        return self._fresh(code)

    # `python -m cohstat` runs cli.main: the same exit code and stdout as a run in process
    def test_module_entry_point_matches_main(self, capsys):
        argv = ["verify", "--check", "example12"]
        env = dict(os.environ, PYTHONPATH=str(Path(cohstat.__file__).parent.parent))
        result = subprocess.run([sys.executable, "-m", "cohstat", *argv], env=env, capture_output=True, text=True)
        code = main(argv)
        assert (result.returncode, result.stdout) == (code, capsys.readouterr().out)

    def test_blocked_scipy_cannot_be_imported(self):
        code = self._BLOCK_SCIPY + (
            "try:\n"
            "    import scipy.linalg\n"
            "except ImportError as exc:\n"
            "    print(exc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert self._fresh(code) == "scipy is blocked []"

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, cohstat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert self._fresh(code) == "[]"

    # every exponential the verify checks form has an exact route in linops, and nothing else imports scipy
    @pytest.mark.parametrize(
        "argv",
        [
            "family poisson --lambda 1000",
            "family binomial --n 200 --p 0.3",
            "infer poisson --observed 200",
            "infer poisson --observed 1000000",
            "infer binomial --n 200 --k 77",
            "verify --check all",
            "verify --check translation --trunc 128",
            "verify --check bch --alpha=3 --trunc 64",
            "verify --check bch --alpha=3+1j --trunc 255",
            "verify --check gauss",
            "verify --check ladder",
            "verify --check identity",
            "verify --check example12",
        ],
    )
    def test_every_command_loads_no_scipy(self, argv):
        assert self._scipy_modules_after(argv) == "[]"

"""Command-line front end.

Subcommands: ``family`` tabulates a coherent-state probability family next
to its closed-form pmf over the outcomes that carry mass (from the first
whose cumulative pmf reaches 1e-12 to the first whose cumulative pmf reaches
1 - 1e-12, one row at least), its footer's ``lower_mass`` the pmf mass below
the first row, ``infer`` tabulates the POV-quadrature posterior
next to the analytic Gamma/Beta density, and ``verify`` runs the named
residual checks of ``_CHECKS``.  Output is a JSON document (schema_version,
command, config, rows, footer) or a CSV table with ``# key=value`` footer
lines.  Each command builds ``rows`` as columns, a dict from row key to an
equal-length list or float64 or int64 array; the JSON document is exactly
``json.dumps(..., indent=2)`` of the payload with ``rows`` in record form, one
object per row, an array read through ``tolist()``.
Config values of the wrong type, out of range or not finite are a
configuration error naming the key; ``infer`` reads no ``--trunc``.
A size past one of the limits of ``_LIMITS`` (table rows, binomial trials,
verify levels, the observed count) is refused before any work, by one line
that names the limit.  Each ``verify`` residual is gated once, by its row's
threshold (``--tol`` when set): a finite residual is always a row, and one
at or past its threshold is a fail row.  Exit codes: 0 success or all
checks passing, 1 a fail row or a numerical failure (a quadrature rule, mass
or parameter grid that does not resolve the distribution, a ``family
poisson`` truncation too small for the displacement, a state, distribution
or ``verify`` residual that overflowed to non-finite values), 2 usage or
configuration error, an output that cannot be written and a size past a
limit among them.  A run that fails writes no ``--out`` file.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fock, inference, spin
from .pv_measure import (
    NonFiniteError,
    VectorState,
    born_probabilities,
    example_family_states,
    pv_from_observable,
)

__all__ = ["ConfigError", "RunConfig", "UsageError", "load_config", "main"]

SCHEMA_VERSION = 1

# A `family` table tabulates the outcomes that carry mass: from the first whose cumulative pmf reaches
# _ROW_CUMULATIVE_STOP to the first whose cumulative pmf reaches 1 - _ROW_CUMULATIVE_STOP, one row at
# least.  Its footer's `lower_mass` is the pmf mass below the first row, 0.0 when that row is outcome 0.
_ROW_CUMULATIVE_STOP = 1e-12

# Every size the CLI refuses before any work, by `_refuse_past`: its value, what it bounds (the
# words after the value in the refusal) and the measured basis of the value.
_LIMITS = {
    "rows": {"value": 2**22, "bounds": "rows", "basis": "`family` outcomes and `infer` grid points "
             "(`lambda_points`, `p_points`). A `family` table computes every outcome, about 120 bytes each, and "
             "writes only those that carry mass: in a fresh process with one BLAS thread, `family poisson --lambda 1 "
             "--trunc 4194304` peaks at 519 MB in 5.6 s, and `--lambda 1e6` computes 1,012,001 outcomes and writes "
             "14,069 rows in 155 MB and 1.2 s. An `infer` row costs about 400-500 bytes, most of them its text, held "
             "twice while the document is joined and written: `infer poisson --observed 500` peaks at 441 MB in 3.5 s "
             "with 2**20 `lambda_points` and at 850-980 MB (as the allocator reuses freed blocks) in 5.5-6.7 s with "
             "2**21, so about 2 GB at the limit."},
    "trials": {"value": 2**15, "bounds": "trials for binomial inference", "basis": "`infer binomial --n`. Central "
               "k overflow sqrt C(n, k) from about n = 2050, k = 0 and k = n underflow from n = 16446, k = n // 100 "
               "flips between exit 0 and 1 from n = 17847 (its mass off by 1.1e-10) and exits 1 from 17852, and "
               "past the limit every sampled (n, k) up to 10**6 exits 1."},
    "verify trunc": {"value": 4096, "bounds": "levels for verify", "basis": "`verify --trunc`. Dense trunc x trunc "
                     "matrices: at the limit, in a fresh process with one BLAS thread, `bch --alpha=3` takes 7.6 s and "
                     "peaks near 1.65 GB (at 2048 levels 0.61 s of its 1.47 s is the SVD in `linops._exp_bipartite`, "
                     "the rest that route's products, the ladder factors' series and the dense products of the check), "
                     "`translation` 13.6 s and 690 MB (nearly all in numpy's eigh of A + A+), and `ladder` peaks near "
                     "280 MB, the memory growing as trunc**2. A process keeps the eigenpairs of A + A+ for its last "
                     "two truncations, 134 MB each at the limit."},
    "observed count": {"value": 2**63 - 1, "bounds": "counts for Poisson inference", "basis": "`infer poisson "
                       "--observed`, the largest int64: past 2**64 `fock`'s log factorial cannot square the count. "
                       "Counts from 10**14 exit 1, their analytic Gamma mass missing 1."},
}


class ConfigError(Exception):
    """Malformed configuration file or invalid setting."""


class UsageError(Exception):
    """Invalid command parameters."""


@dataclass(frozen=True)
class RunConfig:
    """Effective settings for one command invocation.

    ``tol`` overrides the per-check residual thresholds of ``verify``;
    when unset each check uses its documented default.
    """

    trunc: int | None = None
    tol: float | None = None
    tail_tol: float = fock.DEFAULT_TAIL_TOL
    lambda_points: int = 2001
    p_points: int = 1001
    mass_levels: tuple[float, ...] = (0.5, 0.9, 0.95)
    format: str = "json"
    seed: int = 0
    out: str | None = None

    def echo(self) -> dict:
        """Settings echoed under the output's ``config`` key (paths excluded)."""
        settings = dataclasses.asdict(self)
        settings.pop("out")
        settings["mass_levels"] = list(self.mass_levels)
        return settings


_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)} - {"out"}
_FLAG_KEYS = ("trunc", "tol", "format", "seed", "out")


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge documented defaults, config-file values, and command flags.

    Flags override file values, file values override defaults.  Unknown
    file keys and values of the wrong type or range raise ConfigError
    naming the key.
    """
    settings: dict = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            settings[key] = value
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if "mass_levels" in settings:
        levels = settings["mass_levels"]
        if not isinstance(levels, list) or not all(map(_is_number, levels)):
            raise ConfigError(f"mass_levels must be a list of numbers, got {levels!r}")
        settings["mass_levels"] = tuple(levels)
    try:
        config = RunConfig(**settings)
        _validate_config(config)
    except (TypeError, UsageError) as exc:  # a setting past a limit is a configuration error too
        raise ConfigError(str(exc)) from exc
    return config


_INT_KEYS = ("trunc", "lambda_points", "p_points", "seed")
_OPTIONAL_KEYS = ("trunc", "tol")


def _is_number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _validate_config(config: RunConfig) -> None:
    for name in _INT_KEYS:
        value = getattr(config, name)
        if not (_is_number(value, int) or value is None and name in _OPTIONAL_KEYS):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name in ("tol", "tail_tol"):
        value = getattr(config, name)
        # NaN fails every comparison, so it is refused here too
        if not (_is_number(value) and 0 < value < math.inf or value is None and name in _OPTIONAL_KEYS):
            raise ConfigError(f"{name} must be a finite positive number, got {value!r}")
    if config.trunc is not None and config.trunc < 2:
        raise ConfigError(f"trunc must be at least 2, got {config.trunc!r}")
    for name in ("lambda_points", "p_points"):
        points = getattr(config, name)
        if points < 2:
            raise ConfigError(f"{name} must be at least 2, got {points!r}")
        _refuse_past("rows", points, f"{name} needs a table of {points} rows,")
    for level in config.mass_levels:
        if not 0.0 < level < 1.0:
            raise ConfigError(f"mass levels must lie strictly between 0 and 1, got {level!r}")
    if config.format not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {config.format!r}")
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed!r}")


def _refuse_past(limit: str, size: int, refusal: str) -> None:
    """Refuse a ``size`` past ``_LIMITS[limit]`` before any work: a usage error, ``refusal`` naming the limit."""
    value, bounds = _LIMITS[limit]["value"], _LIMITS[limit]["bounds"]
    if size > value:
        raise UsageError(f"{refusal} past the limit of {value} {bounds}")


def _payload(command: str, config: RunConfig, rows: dict, footer: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config.echo(),
        "rows": rows,
        "footer": footer,
    }


# ---------------------------------------------------------------------------
# family

def _family_rows(probabilities: np.ndarray, pmf: np.ndarray) -> tuple[dict, dict]:
    """The rows of a family table that carry mass (the rule at ``_ROW_CUMULATIVE_STOP``), outcome k's row
    holding ``probabilities[k]`` and ``pmf[k]``, and the footer keys they set."""
    cumulative = np.cumsum(pmf)  # nondecreasing, so searchsorted finds the first outcome to reach a level
    stop = min(int(np.searchsorted(cumulative, 1.0 - _ROW_CUMULATIVE_STOP)) + 1, pmf.size)
    # a truncation that holds less than _ROW_CUMULATIVE_STOP of the mass (a tail_tol near 1) keeps its last outcome
    start = min(int(np.searchsorted(cumulative, _ROW_CUMULATIVE_STOP)), stop - 1)
    probabilities, pmf = probabilities[start:stop], pmf[start:stop]
    rows = {"outcome": np.arange(start, stop, dtype=np.int64), "probability": probabilities, "pmf": pmf}
    footer = {
        "max_abs_diff": float(np.abs(probabilities - pmf).max()),
        "lower_mass": float(cumulative[start - 1]) if start else 0.0,
    }
    return rows, footer


def _family_poisson(config: RunConfig, lam: float) -> dict:
    if lam is None:
        raise UsageError("poisson family requires --lambda")
    if lam < 0 or not math.isfinite(lam):
        raise UsageError(f"lambda must be a finite nonnegative rate, got {lam!r}")
    alpha = math.sqrt(lam)
    if config.trunc is None:  # a derived truncation can run to 309 digits, so its refusal names the rate
        trunc, refusal = fock.default_truncation(alpha), f"lambda={lam!r} needs a table"
    else:
        trunc = config.trunc
        refusal = f"truncation {trunc} for lambda={lam!r} needs a table of {trunc} rows,"
    _refuse_past("rows", trunc, refusal)
    state = fock.coherent_closed_form(alpha, fock.FockSpace(trunc), tail_tol=config.tail_tol)
    # the rate is alpha**2, the one fock.poisson_pmf(alpha, n) sees, not lam itself
    pmf = fock._poisson_weight(alpha**2, np.arange(trunc))
    rows, footer = _family_rows(np.abs(state.vector.vector) ** 2, pmf)
    footer.update(trunc=trunc, tail_mass=state.tail_mass)
    return _payload("family", config, rows, footer)


def _family_binomial(config: RunConfig, n: int, p: float) -> dict:
    if n is None or p is None:
        raise UsageError("binomial family requires --n and --p")
    if n < 0:
        raise UsageError(f"n must be nonnegative, got {n!r}")
    if not 0.0 <= p < 1.0:
        raise UsageError(f"p must lie in [0, 1), got {p!r}")
    _refuse_past("rows", n + 1, f"n={n!r} needs a table of {n + 1} rows,")
    point = spin.sphere_point_for_probability(p)
    state = spin.spin_coherent_closed_form(spin.SpinRep(two_j=n), point)
    # every outcome's spin.binomial_pmf(SpinRep(two_j=n), point, ell) at once, at the p it sees
    pmf = spin._binomial_weight(n, np.arange(n + 1), math.sin(point.theta / 2.0) ** 2)
    rows, footer = _family_rows(np.abs(state.vector) ** 2, pmf)
    footer.update(theta=point.theta)
    return _payload("family", config, rows, footer)


# ---------------------------------------------------------------------------
# infer

def _infer(config: RunConfig, family, observed: int, points_key: str, analytic) -> dict:
    """Tabulate the POV posterior of ``observed`` and ``analytic(grid)`` on the family's default grid."""
    grid = family.default_grid(observed, getattr(config, points_key))
    pov = inference.infer_via_pov(observed, family, grid)
    reference = analytic(grid)
    absdiff = np.abs(pov.density - reference.density)
    rows = {
        "parameter": pov.grid,
        "density_pov": pov.density,
        "density_analytic": reference.density,
        "absdiff": absdiff,
    }
    intervals = [(level, *inference.credible_interval(pov, level)) for level in config.mass_levels]
    footer = {
        "total_mass_pov": pov.total_mass,
        "total_mass_analytic": reference.total_mass,
        "sup_abs_diff": float(absdiff.max()),
        "credible_intervals": [{"mass": m, "low": low, "high": high} for m, low, high in intervals],
    }
    return _payload("infer", config, rows, footer)


def _infer_poisson(config: RunConfig, observed: int) -> dict:
    if observed is None:
        raise UsageError("poisson inference requires --observed")
    if observed < 0:
        raise UsageError(f"observed count must be nonnegative, got {observed!r}")
    _refuse_past("observed count", observed, f"observed count {observed} is")
    family = inference.FockCoherentFamily(observed + 1)
    analytic = functools.partial(inference.analytic_poisson_posterior, observed)
    return _infer(config, family, observed, "lambda_points", analytic)


def _infer_binomial(config: RunConfig, n: int, k: int) -> dict:
    if n is None or k is None:
        raise UsageError("binomial inference requires --n and --k")
    if not 0 <= k <= n:
        raise UsageError(f"need 0 <= k <= n, got n={n!r}, k={k!r}")
    _refuse_past("trials", n, f"n={n!r} is")
    family = inference.SpinCoherentFamily(spin.SpinRep(two_j=n))
    analytic = functools.partial(inference.analytic_binomial_posterior, n, k)
    return _infer(config, family, k, "p_points", analytic)


# ---------------------------------------------------------------------------
# verify

def _fmt_complex(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}j"


def _threshold(config: RunConfig, default: float) -> float:
    return config.tol if config.tol is not None else default


def _verify_row(params: str, residual: float, threshold: float) -> dict:
    """One row of a check, without its ``check`` name, which ``_cmd_verify`` adds from ``_CHECKS``."""
    return {
        "params": params,
        "residual": float(residual),
        "threshold": threshold,
        "status": "pass" if residual < threshold else "fail",
    }


def _check_example12(config: RunConfig) -> list[dict]:
    pv = pv_from_observable(np.diag([1.0, 0.0, -1.0]))
    rng = np.random.default_rng(config.seed)
    beta, theta = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 1.2)
    one_trial = np.array([math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2])
    rows = []
    cases = {
        "xi": (VectorState.from_unnormalized([1.0, 2.0, 3.0j]), np.array([1, 4, 9]) / 14.0),
        # (-i, sqrt 2, i) / 2, the family's state at beta = theta = pi/2
        "psi0": (example_family_states(math.pi / 2.0, math.pi / 2.0), np.array([1, 2, 1]) / 4.0),
        # seeded; unlike psi0's, its first and last levels differ in weight (by cos(theta)), so a skewed projector shows
        f"family beta={beta:.4f} theta={theta:.4f}":
            (example_family_states(beta, theta), np.convolve(one_trial, one_trial)),  # the two-trial binomial law
    }
    for name, (state, exact) in cases.items():
        probs = born_probabilities(state, pv)
        residual = float(np.abs(probs - exact).max())
        shown = " ".join(f"{p:.10g}" for p in probs)
        rows.append(_verify_row(f"state={name} probs=[{shown}]", residual, _threshold(config, 1e-14)))
    return rows


def _check_ladder(config: RunConfig) -> list[dict]:
    trunc = config.trunc if config.trunc is not None else 256
    rep = fock.build_ladder(trunc)
    annihilation, number = rep.annihilation, rep.number
    band, levels = np.diagonal(annihilation, 1), np.diagonal(number)
    # I - trunc e_top, the commutator [A, A+] of the truncated space
    truncated_identity = np.ones(trunc)
    truncated_identity[-1] = -(trunc - 1.0)
    rows = []

    banded = np.count_nonzero(annihilation) == np.count_nonzero(band)
    if banded and np.count_nonzero(number) == np.count_nonzero(levels):
        # A+ A and A A+ are diagonal, [0, b^2] and [b^2, 0] for the band b of A: the very
        # values the dense products give, each entry one nonzero product among exact zeros
        squares = np.square(band)
        creation_annihilation, annihilation_creation = np.append(0.0, squares), np.append(squares, 0.0)
    else:
        # an entry off the band of A or off the diagonal of N: the relations in full
        levels, truncated_identity = number, np.diag(truncated_identity)
        creation_annihilation, annihilation_creation = annihilation.T @ annihilation, annihilation @ annihilation.T
    ladder_defect = float(np.abs(levels - creation_annihilation).max())
    rows.append(_verify_row(f"relations trunc={trunc}", ladder_defect, _threshold(config, 1e-12)))

    comm_defect = float(np.abs(annihilation_creation - creation_annihilation - truncated_identity).max())
    rows.append(_verify_row(f"commutation trunc={trunc}", comm_defect, _threshold(config, 1e-12)))

    e1, e2, e3 = spin.so3_basis()
    so3_defect = max(
        float(np.abs(e1 @ e2 - e2 @ e1 - e3).max()),
        float(np.abs(e2 @ e3 - e3 @ e2 - e1).max()),
        float(np.abs(e3 @ e1 - e1 @ e3 - e2).max()),
    )
    rows.append(_verify_row("so3 commutators", so3_defect, _threshold(config, 1e-12)))

    srep = spin.build_spin_rep(25)
    j3, j_plus, j_minus = srep.j3, srep.j_plus, srep.j_minus
    spin_defect = max(
        float(np.abs(j3 @ j_plus - j_plus @ j3 - j_plus).max()),
        float(np.abs(j3 @ j_minus - j_minus @ j3 + j_minus).max()),
        float(np.abs(j_plus @ j_minus - j_minus @ j_plus - 2.0 * j3).max()),
    )
    rows.append(_verify_row("spin commutators j=25", spin_defect, _threshold(config, 1e-12)))
    return rows


def _check_bch(config: RunConfig, alpha: complex) -> list[dict]:
    trunc = config.trunc if config.trunc is not None else 64
    residual = fock.bch_check(alpha, fock.build_ladder(trunc))
    return [_verify_row(f"alpha={_fmt_complex(alpha)} trunc={trunc}", residual, _threshold(config, 1e-10))]


def _check_gauss(config: RunConfig) -> list[dict]:
    # theta capped at 1.0: the triangular factors span sec^{2j}(theta/2), and their product cancels
    # in double precision though the identity is exact.  Over 50 gammas for each 2j <= 20 the worst
    # residual is 2.9e-12 at theta = 1, 3.6e-11 at 1.2 and 2.5e-9 at 1.5, past the 1e-9 threshold.
    rng = np.random.default_rng(config.seed)
    rows = []
    for two_j in range(1, 21):
        theta = rng.uniform(0.05, 1.0)
        gamma = rng.uniform(0.0, 2.0 * math.pi)
        point = spin.SpherePoint(theta=theta, gamma=gamma)
        residual = spin.gauss_decomposition_check(spin.SpinRep(two_j=two_j), point)
        params = f"j={two_j / 2} theta={theta:.4f} gamma={gamma:.4f}"
        rows.append(_verify_row(params, residual, _threshold(config, 1e-9)))
    return rows


def _check_translation(config: RunConfig) -> list[dict]:
    trunc = config.trunc if config.trunc is not None else 64
    rep = fock.build_ladder(trunc)
    rng = np.random.default_rng(config.seed)
    rows = []
    for _ in range(10):
        alpha, beta = (
            2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(2)
        )
        overlap, phase = fock.displacement_translation_check(alpha, beta, rep)
        # D(beta) D(alpha) = e^{is} D(alpha + beta), s the central part of the product (0; beta)(0; alpha)
        expected = np.exp(1j * fock.wh_multiply(fock.WHGroupElement(0.0, beta), fock.WHGroupElement(0.0, alpha)).s)
        residual = max(abs(overlap - 1.0), abs(phase - expected))
        params = f"alpha={_fmt_complex(alpha)} beta={_fmt_complex(beta)} trunc={trunc}"
        rows.append(_verify_row(params, residual, _threshold(config, 1e-8)))
    return rows


def _check_identity(config: RunConfig) -> list[dict]:
    rows = []
    for j in (0.5, 1.0, 2.0, 5.0):
        family = inference.SpinCoherentFamily(spin.build_spin_rep(j))
        residual = inference.resolution_of_identity_check(family, inference.sphere_quadrature(j))
        rows.append(_verify_row(f"spin j={j}", residual, _threshold(config, 1e-12)))
    # 65 = 2 * 32 + 1 angle nodes cover every lag of the 32-element block (m uniform nodes alias
    # lag m onto lag 0)
    rule = inference.plane_quadrature((0.0, 10.0), inference.RADIAL_NODES, 65)
    residual = inference.resolution_of_identity_check(
        inference.FockCoherentFamily(32), rule, n_basis=20
    )
    params = f"plane trunc=32 cutoff=10 n_r={inference.RADIAL_NODES}"
    rows.append(_verify_row(params, residual, _threshold(config, 1e-8)))
    return rows


# Every verify check by name, in the order `--check all` runs them: its rows from the config and --alpha.
_CHECKS = {
    "ladder": lambda config, alpha: _check_ladder(config),
    "bch": _check_bch,
    "gauss": lambda config, alpha: _check_gauss(config),
    "identity": lambda config, alpha: _check_identity(config),
    "translation": lambda config, alpha: _check_translation(config),
    "example12": lambda config, alpha: _check_example12(config),
}
VERIFY_CHECKS = tuple(_CHECKS)


def _cmd_verify(config: RunConfig, check: str, alpha: complex) -> tuple[dict, int]:
    if config.trunc is not None:
        _refuse_past("verify trunc", config.trunc, f"trunc {config.trunc} is")
    if not cmath.isfinite(alpha):
        raise UsageError(f"--alpha must be finite, got {alpha}")
    if check == "all":
        names = VERIFY_CHECKS
    elif check in _CHECKS:
        names = (check,)
    else:
        raise UsageError(f"unknown check {check!r}; choose from {('all',) + VERIFY_CHECKS}")
    records = [{"check": name, **row} for name in names for row in _CHECKS[name](config, alpha)]
    all_pass = all(record["status"] == "pass" for record in records)
    footer = {"all_pass": all_pass, "n_checks": len(records)}
    rows = {key: [record[key] for record in records] for key in records[0]}
    return _payload("verify", config, rows, footer), 0 if all_pass else 1


# ---------------------------------------------------------------------------
# rendering


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_ARRAY_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))  # the column arrays the package writes


def _cells(values):
    """A column's cells as Python scalars: a float64 or int64 array through ``tolist()``, any other as it is."""
    return values.tolist() if isinstance(values, np.ndarray) and values.dtype in _ARRAY_DTYPES else values


def _render_csv(payload: dict) -> str:
    columns = payload["rows"]
    lines = [",".join(columns)]
    lines.extend(",".join(map(_fmt_cell, row)) for row in zip(*map(_cells, columns.values()), strict=True))
    for key, value in payload["footer"].items():
        if key == "credible_intervals":
            for record in value:
                lines.append(
                    "# credible_interval "
                    + " ".join(f"{k}={_fmt_cell(v)}" for k, v in record.items())
                )
        else:
            lines.append(f"# {key}={_fmt_cell(value)}")
    return "\n".join(lines) + "\n"


_SCALARS = (int, float, type(None))  # bool is an int


def _json_key(key) -> str:
    if not isinstance(key, str):
        raise ValueError(f"JSON keys must be strings, got {key!r}")
    return json.dumps(key)


def _encode_column(values: list) -> list[str]:
    """Each cell's JSON text, exactly as ``json.dumps`` writes it.

    A column without strings is one C-encoded ``json.dumps(list)`` call split
    on ``", "``, which no JSON number, ``true``, ``false`` or ``null`` holds;
    a column with strings is encoded cell by cell.
    """
    kinds = set(map(type, values))
    if all(issubclass(kind, _SCALARS) for kind in kinds):
        return json.dumps(values)[1:-1].split(", ") if values else []
    if all(issubclass(kind, (*_SCALARS, str)) for kind in kinds):
        return list(map(json.dumps, values))
    raise ValueError(f"table cells must be numbers, bools, None or strings, got {kinds}")


# Shortest round-trip decimals of a whole float64 array, the digits Python's repr (and so json.dumps)
# writes: Giulietti's Schubfach, as in JDK 19's Double.toString, on uint64 with 64 x 64-bit products
# from 32-bit limbs.  Python keeps one digit where the JDK keeps two (5e-324, not 4.9E-324), so the
# one-digit-shorter candidate is tried from s >= 10, and a tiny subnormal (c < 3, scaled by 10) keeps
# its exponent k + dk on that path too.  Every integer scalar has a dtype, so that uint64 arithmetic
# does not depend on numpy's promotion rules.
_U64 = np.uint64
_LOW32, _LOW63 = _U64(2**32 - 1), _U64(2**63 - 1)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_G_FIRST = -324  # g(k) is tabulated for k in [-324, 292]


@functools.cache
def _schubfach_table() -> tuple[np.ndarray, np.ndarray]:
    """g(k) = floor(10**-k 2**-r) + 1, r = floor(log2(10**-k)) - 125, as its high and low 63 bits."""
    g1, g0 = [], []
    for k in range(_G_FIRST, 293):
        r = ((-k * 913124641741) >> 38) - 125  # floor(-k log2(10)) in fixed point, exact over this range
        g = (1 << -r) // 10**k if k > 0 else 10**-k << -r if r < 0 else 10**-k >> r
        g1.append((g + 1) >> 63)
        g0.append((g + 1) & (2**63 - 1))
    return np.array(g1, np.uint64), np.array(g0, np.uint64)


def _mul_high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U64(32), b & _LOW32, b >> _U64(32)
    cross, low = a1 * b0, a0 * b1
    carry = (a0 * b0 >> _U64(32)) + (cross & _LOW32) + (low & _LOW32)
    return a1 * b1 + (cross >> _U64(32)) + (low >> _U64(32)) + (carry >> _U64(32))


def _round_odd(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2**127), its last bit set when the dropped bits are not all 0 (the JDK's ``rop``)."""
    z = (g1 * cp >> _U64(1)) + _mul_high(g0, cp)
    return (_mul_high(g1, cp) + (z >> _U64(63))) | ((z & _LOW63) + _LOW63 >> _U64(63))


def _shortest_decimals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) with d 10**e the decimal ``repr`` writes for abs(x): shortest, then nearest, ties to even d."""
    bits = x.view(np.uint64)
    biased = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64)
    t = bits & _U64(2**52 - 1)
    normal = biased != 0
    tiny = ~normal & (t < _U64(3))
    c = np.where(normal, t | _U64(2**52), np.where(tiny, t * _U64(10), t))
    q = np.maximum(biased, np.int64(1)) - np.int64(1075)
    regular = (c != _U64(2**52)) | (q == np.int64(-1074))  # a power of two has a closer neighbour below
    # k = floor(log10(2**q)), or floor(log10(3/4 2**q)) below a power of two, and h = q + floor(log2(10**-k)) + 2
    # in 1..4, each by the JDK's fixed-point products
    k = q * np.int64(661971961083) - np.where(regular, np.int64(0), np.int64(274743187321)) >> np.int64(41)
    h = (q + (-k * np.int64(913124641741) >> np.int64(38)) + np.int64(2)).astype(np.uint64)
    g1, g0 = (np.take(half, k - _G_FIRST) for half in _schubfach_table())
    cb = c << _U64(2)
    vb = _round_odd(g1, g0, cb << h)
    vbl = _round_odd(g1, g0, cb - np.where(regular, _U64(2), _U64(1)) << h)
    vbr = _round_odd(g1, g0, cb + _U64(2) << h)
    s, out = vb >> _U64(2), c & _U64(1)  # an even c keeps the ends of its rounding interval
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl + out <= sp10 << _U64(2)
    wpin = (sp10 + _U64(10) << _U64(2)) + out <= vbr
    shorter = (s >= _U64(10)) & (upin != wpin)
    t1 = s + _U64(1)
    uin = vbl + out <= s << _U64(2)
    win = (t1 << _U64(2)) + out <= vbr
    middle = s + t1 << _U64(1)
    take_s = np.where(uin != win, uin, (vb < middle) | (vb == middle) & (s & _U64(1) == _U64(0)))
    d = np.where(shorter, np.where(upin, sp10, sp10 + _U64(10)), np.where(take_s, s, t1))
    zero = ~normal & (t == _U64(0))
    return np.where(zero, _U64(0), d), np.where(zero, np.int64(0), k - tiny)


@functools.cache
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0..9999 as 4 zero-padded bytes each, and the trailing zeros of each."""
    text = [f"{i:04d}" for i in range(10000)]
    quads = np.frombuffer("".join(text).encode(), np.uint8).reshape(10000, 4)
    return quads, np.array([4 - len(digits.rstrip("0")) for digits in text], np.int64)


# A cell is gathered from a source row of 28 bytes: 19 digits left-aligned, then "-.0e", the exponent's
# sign and 3 exponent digits, then NUL.  Its layout is keyed by (sign, significant digits, form), the
# form one of Python's: "0.000ddd", "ddd.ddd" and "ddd00.0" for decimal points at -3..16 (forms 0-19),
# d.ddde+XX with 2 or 3 exponent digits (20, 21), and an integer's digits (22).
_CELL_WIDTH, _FORMS = 24, 23


@functools.cache
def _cell_layouts() -> tuple[np.ndarray, np.ndarray]:
    """Each key's source columns, NUL-padded to ``_CELL_WIDTH``, and its cell length."""
    layouts, lengths = [], []
    for sign in ([], [19]):
        for size in range(1, 20):
            digits = list(range(size))
            for form in range(_FORMS):
                point = form - 3
                if form == 22:
                    body = digits
                elif size > 17:  # no float has more than 17 significant digits
                    body = []
                elif form >= 20:
                    body = digits[:1] + ([20] + digits[1:] if size > 1 else []) + [22, 23] + list(range(45 - form, 27))
                elif point <= 0:
                    body = [21, 20] + [21] * -point + digits
                elif point < size:
                    body = digits[:point] + [20] + digits[point:]
                else:
                    body = digits + [21] * (point - size) + [20, 21]
                cell = sign + body if body else []
                lengths.append(len(cell))
                layouts.append(cell + [27] * (_CELL_WIDTH - len(cell)))
    return np.array(layouts, np.int32), np.array(lengths, np.int64)


def _number_cells(values: np.ndarray) -> np.ndarray:
    """One NUL-padded ``uint8`` row per value of a finite float64 or an int64 array, that reads as
    ``json.dumps(value)`` once its NULs are dropped."""
    floating = values.dtype == np.float64
    if floating:
        d, e = _shortest_decimals(values)
        negative = (values.view(np.uint64) >> _U64(63)).astype(np.int64)
    else:
        d, e = np.abs(values).view(np.uint64), np.int64(0)  # abs(-2**63) reads 2**63 as uint64
        negative = (values < 0).astype(np.int64)
    places = np.searchsorted(_POW10[1:], d, side="right")  # digits - 1
    left = d * np.take(_POW10, 18 - places)  # 19 digits, left-aligned
    top = left // _U64(10**16)
    rest = left - top * _U64(10**16)
    high = rest // _U64(10**8)
    low = rest - high * _U64(10**8)
    groups = (high // _U64(10**4), high % _U64(10**4), low // _U64(10**4), low % _U64(10**4))
    quads, trailing = _digit_table()
    source = np.empty((values.size, 28), np.uint8)
    source[:, :3] = np.take(quads, top, axis=0)[:, 1:]
    for i, group in enumerate(groups):
        source[:, 3 + 4 * i:7 + 4 * i] = np.take(quads, group, axis=0)
    source[:, 19:23] = np.frombuffer(b"-.0e", np.uint8)
    source[:, 27] = 0
    if floating:
        size = np.maximum(3 - np.take(trailing, top), 1)
        for end, group in zip((7, 11, 15, 19), groups):
            size = np.where(group != _U64(0), end - np.take(trailing, group), size)
        point = places + 1 + e
        exponent = np.abs(point - 1)
        source[:, 23] = np.where(point < 1, 45, 43)
        source[:, 24:27] = np.take(quads, exponent, axis=0)[:, 1:]
        form = np.where((point >= -3) & (point <= 16), point + 3, np.where(exponent < 100, 20, 21))
    else:
        size, form = places + 1, 22
    layouts, lengths = _cell_layouts()
    key = (negative * 19 + size - 1) * _FORMS + form
    width = int(np.take(lengths, key).max())
    index = np.take(layouts[:, :width], key, axis=0)
    index += np.arange(0, 28 * values.size, 28, dtype=np.int32)[:, None]
    return np.take(source.reshape(-1), index)


# A table of at least this many numeric cells, all its columns float64 or int64 arrays and every float
# finite, is written by `_render_block`; a smaller one by the per-row template.  On a 2-core Xeon with one
# BLAS thread the block costs about 0.4 ms whatever the size (some 150 numpy calls) plus 0.27 us a cell,
# the template 0.7-0.85 us a cell: they break even near 550 cells for `infer`'s four float columns and
# near 800 for `family`'s outcome and two float columns, and at 1200 cells the block is 20-40 % faster.
_VECTOR_MIN_CELLS = 1024
# The block is built this many rows at a time, so that its temporaries, about 1.5 KB a row, do not grow
# with the table.  `infer poisson --observed 500` with 2**19 `lambda_points` (one BLAS thread) peaks at
# 1028 MB in 3.1-3.5 s as one block; in blocks of 2048, 4096, 8192, 16384 and 65536 rows at 236, 240, 248,
# 263 and 318 MB, in 1.5, 1.35-1.4, 1.55, 1.6 and 2.3 s.  4096 is the fastest, and a 2001-row posterior
# is one block.
_VECTOR_CHUNK_ROWS = 4096


def _vector_table(columns: dict) -> bool:
    """Whether ``_render_rows`` writes ``columns`` through ``_render_block``."""
    values = list(columns.values())
    if not values or not all(isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype in _ARRAY_DTYPES for v in values):
        return False
    rows = values[0].size
    if not rows or any(v.size != rows for v in values) or rows * len(values) < _VECTOR_MIN_CELLS:
        return False  # the template writes an empty table and refuses unequal columns
    return all(np.isfinite(v).all() for v in values if v.dtype == np.float64)


def _render_block(columns: dict) -> str:
    """The records of ``_render_rows`` as one ``uint8`` block per ``_VECTOR_CHUNK_ROWS`` rows: each row the
    constant key segments and its cells, NUL-padded, the NULs dropped and the block decoded once."""
    heads = [f"      {_json_key(key)}: ".encode() for key in columns]
    heads[0] = b"    {\n" + heads[0]
    heads = [np.frombuffer(head, np.uint8) for head in heads]
    separator, tail = np.frombuffer(b",\n", np.uint8), np.frombuffer(b"\n    },\n", np.uint8)
    values = list(columns.values())
    pieces = []
    for start in range(0, values[0].size, _VECTOR_CHUNK_ROWS):
        chunk = [v[start:start + _VECTOR_CHUNK_ROWS] for v in values]
        rows, cells = chunk[0].size, [None] * len(chunk)
        for dtype in _ARRAY_DTYPES:
            which = [i for i, v in enumerate(chunk) if v.dtype == dtype]
            if which:
                matrix = _number_cells(np.concatenate([chunk[i] for i in which]))
                for n, i in enumerate(which):
                    cells[i] = matrix[n * rows:(n + 1) * rows]
        parts = [part for head, cell in zip(heads, cells) for part in (separator, head, cell)][1:] + [tail]
        block = np.empty((rows, sum(part.shape[-1] for part in parts)), np.uint8)
        at = 0
        for part in parts:
            block[:, at:at + part.shape[-1]] = part
            at += part.shape[-1]
        block = block.reshape(-1)
        pieces.append(block[block != 0].tobytes().decode("ascii"))
    pieces[-1] = pieces[-1][:-2]  # the last row takes no comma
    return "".join(["[\n", *pieces, "\n  ]"])


def _render_rows(columns: dict) -> str:
    """``json.dumps`` of the table's records with ``indent=2``, one level deep.

    The records are ``[dict(zip(columns, row)) for row in zip(*columns.values())]``,
    a float64 or int64 array column read through ``tolist()``; columns of
    unequal length raise ValueError.  A table that ``_vector_table`` admits is
    written by ``_render_block``, any other row by row through a ``%`` template.
    """
    if _vector_table(columns):
        return _render_block(columns)
    fields = [f"      {_json_key(key).replace('%', '%%')}: %s" for key in columns]
    template = "    {\n" + ",\n".join(fields) + "\n    }"
    rows = zip(*(_encode_column(_cells(values)) for values in columns.values()), strict=True)
    body = ",\n".join(map(template.__mod__, rows))
    return "[\n" + body + "\n  ]" if body else "[]"


def _render_json(payload: dict) -> str:
    """Exactly ``json.dumps(..., indent=2)`` of the payload with its ``rows`` columns as records.

    ``rows`` is written column by column by ``_render_rows``; every other
    top-level value goes through ``json.dumps(value, indent=2)`` with each
    newline re-indented one level; JSON escapes newlines inside strings, so
    only structural newlines move.  The document is joined once, so a large
    table's text is copied once.
    """
    parts = []
    for key, value in payload.items():
        text = _render_rows(value) if key == "rows" else json.dumps(value, indent=2).replace("\n", "\n  ")
        parts += [",\n  " if parts else "{\n  ", _json_key(key), ": ", text]
    return "".join([*parts, "\n}"]) if parts else "{}"


def _emit(payload: dict, config: RunConfig) -> None:
    if config.format == "json":
        text = _render_json(payload) + "\n"
    else:
        text = _render_csv(payload)
    if config.out is None:
        sys.stdout.write(text)
    else:
        Path(config.out).write_text(text)


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built on the first call, not at import; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohstat",
        description="Coherent-state probability families and their inferred posteriors.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trunc", type=int,
        help="Fock levels of family poisson and verify ladder, bch, translation; other commands and checks ignore it",
    )
    common.add_argument("--tol", type=float, help="residual threshold of every verify check; family and infer ignore it")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=["json", "csv"], help="output format")
    common.add_argument("--seed", type=int, help="seed for sampled verification points")
    common.add_argument("--config", help="JSON config file")

    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", parents=[common], help="tabulate a probability family")
    family.add_argument("kind", choices=["poisson", "binomial"])
    family.add_argument("--lambda", dest="lam", type=float, help="Poisson rate (alpha = sqrt(rate))")
    family.add_argument("--n", type=int, help="binomial trial count")
    family.add_argument("--p", type=float, help="binomial success probability in [0, 1)")

    infer = sub.add_parser("infer", parents=[common], help="tabulate an inferred posterior")
    infer.add_argument("kind", choices=["poisson", "binomial"])
    infer.add_argument("--observed", type=int, help="observed Poisson count")
    infer.add_argument("--n", type=int, help="binomial trial count")
    infer.add_argument("--k", type=int, help="observed binomial count")

    verify = sub.add_parser("verify", parents=[common], help="run residual checks")
    verify.add_argument("--check", required=True, help="|".join((*VERIFY_CHECKS, "all")))
    verify.add_argument("--alpha", type=complex, default=1.0 + 0.0j, help="displacement for the bch check")
    return parser


def _run(args: argparse.Namespace, config: RunConfig) -> tuple[dict, int]:
    if args.command == "family":
        if args.kind == "poisson":
            return _family_poisson(config, args.lam), 0
        return _family_binomial(config, args.n, args.p), 0
    if args.command == "infer":
        if args.kind == "poisson":
            return _infer_poisson(config, args.observed), 0
        return _infer_binomial(config, args.n, args.k), 0
    return _cmd_verify(config, args.check, args.alpha)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args)
        # overflow surfaces as a non-finite state, mass or residual, which is
        # reported below or fails its check, so numpy need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            payload, code = _run(args, config)
    except (inference.ResolutionError, fock.TruncationError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(payload, config)
    except OSError as exc:
        print(f"error: cannot write output to {config.out or 'stdout'}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Checks of one CLI output against independent scipy references.

Tolerances are those of ``tests/test_acceptance.py``: family rows to 1e-10
(Poisson) and 1e-12 (binomial); posterior densities to a sup error of 1e-8
on the plane and 1e-10 on the sphere, with quadrature mass within 1e-6 and
1e-10 of one; ``verify`` must report ``all_pass``.  Each check returns
``None`` when the output is right, or the reason it is not.
"""

from __future__ import annotations

import numpy as np
from scipy import stats


def _worst(payload: dict, column: str, reference) -> float:
    outcomes = np.array([row["outcome"] for row in payload["rows"]])
    values = np.array([row[column] for row in payload["rows"]])
    return float(np.abs(values - reference(outcomes)).max())


def _family(payload: dict, reference, tol: float) -> str | None:
    for column in ("probability", "pmf"):
        worst = _worst(payload, column, reference)
        if not worst < tol:
            return f"{column} differs from scipy by {worst:.3e} (tolerance {tol:.0e})"
    return None


def _infer(payload: dict, reference, sup_tol: float, mass_tol: float) -> str | None:
    grid = np.array([row["parameter"] for row in payload["rows"]])
    density = np.array([row["density_pov"] for row in payload["rows"]])
    sup = float(np.abs(density - reference(grid)).max())
    if not sup < sup_tol:
        return f"density differs from scipy by {sup:.3e} (tolerance {sup_tol:.0e})"
    mass_error = abs(payload["footer"]["total_mass_pov"] - 1.0)
    if not mass_error < mass_tol:
        return f"quadrature mass off by {mass_error:.3e} (tolerance {mass_tol:.0e})"
    return None


def failing_rows(payload: dict) -> str:
    """The ``check params`` of each failing ``verify`` row."""
    return "; ".join(f"{row['check']} {row['params']}" for row in payload["rows"] if row["status"] != "pass")


def check(kind: str, params: dict, payload: dict) -> str | None:
    if kind == "verify":
        return None if payload["footer"]["all_pass"] is True else "failing rows: " + failing_rows(payload)
    if kind == "family-poisson":
        return _family(payload, lambda k: stats.poisson.pmf(k, params["lam"]), 1e-10)
    if kind == "family-binomial":
        return _family(payload, lambda k: stats.binom.pmf(k, params["n"], params["p"]), 1e-12)
    if kind == "infer-poisson":
        return _infer(payload, lambda x: stats.gamma.pdf(x, params["n"] + 1), 1e-8, 1e-6)
    if kind == "infer-binomial":
        n, k = params["n"], params["k"]
        return _infer(payload, lambda x: stats.beta.pdf(x, k + 1, n - k + 1), 1e-10, 1e-10)
    raise ValueError(f"unknown op kind {kind!r}")

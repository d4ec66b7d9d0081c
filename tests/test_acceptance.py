"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are fixed here and are not to be loosened."""

import json
import math

import numpy as np

from cohstat.cli import main
from cohstat.fock import (
    FockSpace,
    bch_check,
    build_ladder,
    coherent_closed_form,
    displacement_translation_check,
    poisson_pmf,
)
from cohstat.inference import (
    FockCoherentFamily,
    SpinCoherentFamily,
    analytic_binomial_posterior,
    analytic_poisson_posterior,
    infer_via_pov,
    plane_quadrature,
    resolution_of_identity_check,
    sphere_quadrature,
)
from cohstat.pv_measure import (
    VectorState,
    born_probabilities,
    gaussian_position_probability,
    pv_from_observable,
)
from cohstat.spin import (
    SpherePoint,
    binomial_pmf,
    build_spin_rep,
    gauss_decomposition_check,
    so3_basis,
    spin_coherent_closed_form,
)


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def test_criterion_1_three_level_golden_values():
    pv = pv_from_observable(np.diag([1.0, 0.0, -1.0]))
    xi = VectorState.from_unnormalized(np.array([1.0, 2.0, 3.0j]))
    psi0 = VectorState(np.array([-1.0j, math.sqrt(2.0), 1.0j]) / 2.0)
    worst = max(
        np.abs(born_probabilities(xi, pv) - np.array([1.0, 4.0, 9.0]) / 14.0).max(),
        np.abs(born_probabilities(psi0, pv) - np.array([1.0, 2.0, 1.0]) / 4.0).max(),
    )
    report(1, "three-level golden probabilities", worst < 1e-14, f"worst {worst:.2e}")


def test_criterion_2_poisson_family_equivalence():
    space = FockSpace(128)
    worst = 0.0
    for lam in (0.5, 1.0, 4.0, 9.0):
        alpha = math.sqrt(lam)
        state = coherent_closed_form(alpha, space)
        probs = np.abs(state.vector.vector) ** 2
        for n in range(31):
            worst = max(worst, abs(probs[n] - poisson_pmf(alpha, n)))
    report(2, "Poisson family equivalence", worst < 1e-10, f"worst {worst:.2e}")


def test_criterion_3_binomial_family_equivalence():
    worst = 0.0
    thetas = (0.1, 0.7, math.pi / 2.0, 2.0, 2.8)
    for n in (1, 2, 10, 50):
        rep = build_spin_rep(n / 2.0)
        for theta in thetas:
            point = SpherePoint(theta, 1.3)
            probs = np.abs(spin_coherent_closed_form(rep, point).vector) ** 2
            for k, m in enumerate(rep.m_values):
                worst = max(worst, abs(probs[k] - binomial_pmf(rep, point, m)))
    report(3, "binomial family equivalence", worst < 1e-12, f"worst {worst:.2e}")


def test_criterion_4_operator_identities():
    bch_residual = bch_check(1.0, build_ladder(64))
    ok_bch = bch_residual < 1e-10

    rng = np.random.default_rng(0)
    gauss_residual = 0.0
    for two_j in range(1, 21):
        point = SpherePoint(rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.0 * math.pi))
        gauss_residual = max(
            gauss_residual, gauss_decomposition_check(build_spin_rep(two_j / 2.0), point)
        )
    ok_gauss = gauss_residual < 1e-9

    rep = build_ladder(64)
    phase_residual = 0.0
    for _ in range(10):
        alpha, beta = (
            2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(2)
        )
        _, phase = displacement_translation_check(alpha, beta, rep)
        expected = np.exp(1j * (beta * np.conjugate(alpha)).imag)
        phase_residual = max(phase_residual, abs(phase - expected))
    ok_translation = phase_residual < 1e-8

    report(
        4,
        "operator identities",
        ok_bch and ok_gauss and ok_translation,
        f"bch {bch_residual:.2e}, gauss {gauss_residual:.2e}, translation {phase_residual:.2e}",
    )


def test_criterion_5_resolution_of_identity():
    spin_residual = 0.0
    for j in (0.5, 1.0, 5.0):
        family = SpinCoherentFamily(build_spin_rep(j))
        spin_residual = max(spin_residual, resolution_of_identity_check(family, sphere_quadrature(j)))
    plane_rule = plane_quadrature((0.0, 10.0), 200, 65)
    plane_residual = resolution_of_identity_check(FockCoherentFamily(32), plane_rule, n_basis=20)
    report(
        5,
        "resolution of identity",
        spin_residual < 1e-12 and plane_residual < 1e-8,
        f"spin {spin_residual:.2e}, plane {plane_residual:.2e}",
    )


def test_criterion_6_inferred_posterior_equivalence():
    poisson_sup = poisson_mass_err = 0.0
    for n in (0, 1, 5, 20):
        pov = infer_via_pov(n, FockCoherentFamily(max(64, n + 1)))
        analytic = analytic_poisson_posterior(n, pov.grid)
        poisson_sup = max(poisson_sup, float(np.abs(pov.density - analytic.density).max()))
        poisson_mass_err = max(poisson_mass_err, abs(pov.total_mass - 1.0))
    ok_poisson = poisson_sup < 1e-8 and poisson_mass_err < 1e-6

    binomial_sup = binomial_mass_err = 0.0
    for n, k in ((1, 0), (2, 1), (10, 3), (30, 30)):
        rep = build_spin_rep(n / 2.0)
        pov = infer_via_pov(k, SpinCoherentFamily(rep))
        analytic = analytic_binomial_posterior(n, k, pov.grid)
        binomial_sup = max(binomial_sup, float(np.abs(pov.density - analytic.density).max()))
        binomial_mass_err = max(binomial_mass_err, abs(pov.total_mass - 1.0))
    ok_binomial = binomial_sup < 1e-10 and binomial_mass_err < 1e-10

    report(
        6,
        "inferred posterior equivalence",
        ok_poisson and ok_binomial,
        f"Gamma sup {poisson_sup:.2e} mass {poisson_mass_err:.2e}, "
        f"Beta sup {binomial_sup:.2e} mass {binomial_mass_err:.2e}",
    )


def simpson_normal_mass(sigma, a, b, n=10001):
    x = np.linspace(a, b, n)
    density = np.exp(-(x**2) / (2.0 * sigma**2)) / math.sqrt(2.0 * math.pi * sigma**2)
    h = (b - a) / (n - 1)
    return h / 3.0 * (density[0] + density[-1] + 4.0 * density[1:-1:2].sum() + 2.0 * density[2:-2:2].sum())


def test_criterion_7_gaussian_interval_masses():
    intervals = [(-1.0, 1.0), (0.0, 2.0), (-3.0, -0.5), (0.25, 0.75), (-2.5, 2.5)]
    worst = 0.0
    for sigma in (0.5, 1.0, 3.0):
        for a, b in intervals:
            erf_mass = gaussian_position_probability(sigma, a, b)
            worst = max(worst, abs(erf_mass - simpson_normal_mass(sigma, a, b)))
    report(7, "Gaussian interval masses", worst < 1e-10, f"worst {worst:.2e}")


def test_criterion_8_ladder_and_commutation_suites():
    worst = 0.0
    for trunc in (2, 64, 256):
        rep = build_ladder(trunc)
        expected_a = np.zeros((trunc, trunc), dtype=complex)
        for k in range(1, trunc):
            expected_a[k - 1, k] = math.sqrt(k)
        worst = max(worst, float(np.abs(rep.annihilation - expected_a).max()))
        worst = max(worst, float(np.abs(rep.creation - expected_a.conj().T).max()))
        worst = max(worst, float(np.abs(rep.number - np.diag(np.arange(float(trunc)))).max()))
        worst = max(worst, float(np.abs(rep.creation @ rep.annihilation - rep.number).max()))
        artifact = np.eye(trunc)
        artifact[-1, -1] = -(trunc - 1.0)
        comm = rep.annihilation @ rep.creation - rep.creation @ rep.annihilation
        worst = max(worst, float(np.abs(comm - artifact).max()))

    e1, e2, e3 = so3_basis()
    worst = max(worst, float(np.abs(e1 @ e2 - e2 @ e1 - e3).max()))
    worst = max(worst, float(np.abs(e2 @ e3 - e3 @ e2 - e1).max()))
    worst = max(worst, float(np.abs(e3 @ e1 - e1 @ e3 - e2).max()))

    for j in (0.5, 5.0, 25.0):
        srep = build_spin_rep(j)
        expected_plus = np.zeros((srep.dim, srep.dim), dtype=complex)
        for i, m in enumerate(srep.m_values[:-1]):
            expected_plus[i + 1, i] = math.sqrt((j - m) * (j + m + 1.0))
        worst = max(worst, float(np.abs(srep.j_plus - expected_plus).max()))
        worst = max(worst, float(np.abs(srep.j_minus - expected_plus.conj().T).max()))
        worst = max(worst, float(np.abs(srep.j3 - np.diag(srep.m_values)).max()))
        worst = max(worst, float(np.abs(srep.j3 @ srep.j_plus - srep.j_plus @ srep.j3 - srep.j_plus).max()))
        worst = max(worst, float(np.abs(srep.j3 @ srep.j_minus - srep.j_minus @ srep.j3 + srep.j_minus).max()))
        worst = max(
            worst,
            float(np.abs(srep.j_plus @ srep.j_minus - srep.j_minus @ srep.j_plus - 2.0 * srep.j3).max()),
        )
    report(8, "ladder and commutation suites", worst < 1e-12, f"worst {worst:.2e}")


def test_criterion_9_cli_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_first = main(["verify", "--check", "all", "--out", str(first)])
    code_second = main(["verify", "--check", "all", "--out", str(second)])
    payload = json.loads(first.read_text())
    ok = (
        code_first == 0
        and code_second == 0
        and payload["footer"]["all_pass"] is True
        and first.read_bytes() == second.read_bytes()
    )
    report(9, "CLI determinism", ok, f"exit {code_first}, {payload['footer']['n_checks']} checks")

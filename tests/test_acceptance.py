"""Acceptance criteria for the certification toolkit.

Each test checks one criterion at its stated tolerance, enforces the runtime
budget, and prints a PASS line (visible with ``pytest -s`` or ``-v``).
"""

import math
import time

import numpy as np
import pytest

from qhtcert import (
    boundary_radius_search,
    brute_force_min_beta,
    certify_condition,
    class_probabilities,
    helstrom,
    hoeffding_coverage,
    radius_depol_qht,
    radius_hoelder,
    radius_qht_pure,
    radius_qht_pure_mixed,
    signed_projections,
    trace_distance,
    worst_case_classifier,
)
from qhtcert import demo
from qhtcert.cli import main
from qhtcert.states import PureState

from conftest import _alpha_plus, _smoothed_boundary_generic, philox, random_density, random_pure


def _report(name: str, elapsed: float, budget: float) -> None:
    print(f"\n{name}: PASS ({elapsed:.2f}s < {budget:.0f}s budget)")
    assert elapsed < budget


def test_criterion_01_toy_example_beta():
    start = time.perf_counter()
    sigma = demo.benign_state().density()
    rho = demo.adversarial_state().density()
    test = helstrom(rho, sigma, 0.1)
    assert test.beta == pytest.approx(0.4402, abs=0.005)
    _report("criterion 1 (worked-example type-II error 0.4402 +- 0.005)", time.perf_counter() - start, 1.0)


def test_criterion_02_certified_angle_threshold():
    start = time.perf_counter()
    radius = boundary_radius_search(0.9, 0.1, demo.benign_state(), samples=60, seed=3)
    theta = 2.0 * math.asin(radius)
    assert theta == pytest.approx(0.9273, abs=1e-3)
    _report("criterion 2 (certified angle 0.9273 +- 1e-3)", time.perf_counter() - start, 10.0)


def test_criterion_03_pure_pure_equivalence():
    start = time.perf_counter()
    rng = philox(303)
    pa_grid = np.linspace(0.52, 0.98, 20)
    checked = 0
    for _ in range(1000):
        sigma = random_pure(2, rng).density()
        rho = random_pure(2, rng).density()
        t_dist = trace_distance(sigma, rho)
        for p_a in pa_grid:
            r = radius_qht_pure(p_a, 1.0 - p_a)
            if abs(t_dist - r) <= 1e-6:
                continue
            assert certify_condition(sigma, rho, p_a, 1.0 - p_a) == (t_dist < r)
            checked += 1
    assert checked > 15000
    _report(f"criterion 3 (pure-pure equivalence, {checked} checks)", time.perf_counter() - start, 120.0)


def test_criterion_04_brute_force_never_beats_helstrom():
    start = time.perf_counter()
    rng = philox(404)
    alphas = (0.05, 0.1, 0.3, 0.5, 0.8)
    worst_gap = math.inf
    for i in range(50):
        if i % 2 == 0:
            sigma, rho = random_pure(2, rng).density(), random_pure(2, rng).density()
        else:
            sigma, rho = random_density(2, rng), random_density(2, rng)
        for alpha0 in alphas:
            optimal = helstrom(rho, sigma, alpha0).beta
            found = brute_force_min_beta(sigma, rho, alpha0, samples=100_000, seed=1000 + i).best_value
            worst_gap = min(worst_gap, found - optimal)
            assert found >= optimal - 1e-8
    _report(
        f"criterion 4 (search floor, min(found - optimal) = {worst_gap:.2e} >= -1e-8)",
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_05_sandwich_and_monotonicity():
    start = time.perf_counter()
    rng = philox(505)
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    for d in (2, 3, 4):
        for _ in range(15):
            rho, sigma = random_density(d, rng), random_density(d, rng)
            for alpha0 in alphas:
                test = helstrom(rho, sigma, alpha0)
                proj = test.projections
                a_plus = float(np.real(np.trace(sigma.matrix @ proj.p_plus)))
                a_zero = float(np.real(np.trace(sigma.matrix @ proj.p_zero)))
                assert a_plus <= alpha0 + 1e-9
                assert a_plus + a_zero >= alpha0 - 1e-9
            ts = np.sort(rng.uniform(0.0, 4.0, size=5))
            plus = [_alpha_plus(rho, sigma, float(t), 1e-8) for t in ts]
            assert all(b <= a + 1e-9 for a, b in zip(plus, plus[1:]))
            keep = []
            for t in ts:
                proj = signed_projections(rho, sigma, float(t))
                keep.append(float(np.real(np.trace(sigma.matrix @ (proj.p_plus + proj.p_zero)))))
            assert all(b <= a + 1e-9 for a, b in zip(keep, keep[1:]))
    _report("criterion 5 (bracketing and monotonicity at 1e-9, d in {2,3,4})", time.perf_counter() - start, 60.0)


def test_criterion_06_worst_case_tightness():
    start = time.perf_counter()
    rng = philox(606)
    flips = 0
    n_pairs = 1000
    for _ in range(n_pairs):
        p_a = float(rng.uniform(0.55, 0.98))
        boundary_theta = 2.0 * math.asin(radius_qht_pure(p_a, 1.0 - p_a))
        theta = float(rng.uniform(boundary_theta + 1e-3, math.pi))
        sigma = random_pure(2, rng)
        perp = np.array([-np.conj(sigma.amplitudes[1]), np.conj(sigma.amplitudes[0])])
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        amps = math.cos(theta / 2.0) * sigma.amplitudes + math.sin(theta / 2.0) * np.exp(1j * phi) * perp
        rho = PureState(amps).density()
        assert not certify_condition(sigma.density(), rho, p_a, 1.0 - p_a)
        wc = worst_case_classifier(sigma.density(), rho, p_a, 0, 1)
        probs = class_probabilities(wc, sigma.density())
        assert abs(probs[0] - p_a) <= 1e-9
        assert abs(probs[1] - (1.0 - p_a)) <= 1e-9
        rho_probs = class_probabilities(wc, rho)
        if rho_probs[1] > rho_probs[0]:
            flips += 1
    assert flips == n_pairs
    _report(f"criterion 6 (worst case flips {flips}/{n_pairs})", time.perf_counter() - start, 60.0)


def test_criterion_07_pure_radius_ordering_grid():
    start = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 100)
    violations = 0
    for p_a in grid:
        for p_b in grid:
            if not p_b < p_a:
                continue
            r1 = radius_qht_pure(p_a, p_b)
            rh = radius_hoelder(p_a, p_b)
            r2m = radius_qht_pure_mixed(p_a, p_b, "main")
            r2a = radius_qht_pure_mixed(p_a, p_b, "appendix")
            if not (r1 >= rh >= r2m and rh >= r2a):
                violations += 1
    assert violations == 0
    _report("criterion 7 (radius ordering on 100x100 grid, zero violations)", time.perf_counter() - start, 5.0)


def test_criterion_08_smoothed_curves_csv(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "depol.csv"
    p_list = ",".join(f"{p:.2f}" for p in np.arange(0.05, 0.96, 0.10))
    assert main(["compare-depol", "--p", p_list, "--grid", "99", "--output", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 10 * 99
    violations = 0
    for row in rows:
        p, p_a, r_q, r_h, r_d = map(float, row.split(","))
        if r_q < max(r_h, r_d):
            violations += 1
        if p_a > (4.0 - 3.0 * p) / (4.0 - 2.0 * p):
            assert r_q == 1.0
    assert violations == 0
    _report("criterion 8 (smoothed curves dominate pointwise, saturation exact)", time.perf_counter() - start, 5.0)


def test_criterion_09_smoothed_closed_form_vs_generic():
    start = time.perf_counter()
    sigma = demo.benign_state().density()
    worst = 0.0
    for p in np.linspace(0.05, 0.95, 10):
        for p_a in np.linspace(0.55, 0.97, 10):
            closed = radius_depol_qht(float(p_a), float(p))
            generic = _smoothed_boundary_generic(sigma, float(p), float(p_a))
            worst = max(worst, abs(closed - generic))
            assert abs(closed - generic) <= 1e-6
    _report(f"criterion 9 (smoothed closed form vs generic, worst gap {worst:.2e})", time.perf_counter() - start, 120.0)


def test_criterion_10_hoeffding_coverage():
    start = time.perf_counter()
    cl = demo.hemisphere_classifier()
    sigma = demo.benign_state().density()
    coverage = hoeffding_coverage(cl, sigma, trials=10_000, n_shots=1000, epsilon=0.05, seed=1010)
    assert coverage >= 0.94
    _report(f"criterion 10 (coverage {coverage:.4f} >= 0.94)", time.perf_counter() - start, 60.0)

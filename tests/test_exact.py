"""Self-test of the exact 2x2 reference: the candidate maximum against golden section."""

import numpy as np
from decimal import Decimal

import exact
from conftest import philox, random_density, random_pure
from qhtcert import DensityMatrix


def test_candidate_maximum_matches_golden_section():
    # 1000 pairs: pure and mixed sigma and rho, rho = sigma, and Tr sigma = 1
    # exactly at level 1/2, where c = 2L - Tr sigma = 0 and the stationarity
    # quadratic has a double root.  Golden section never beats the candidate
    # maximum, and comes within 1e-40 of it.
    rng = philox(2710)
    checked = {"c = 0": 0, "rho = sigma": 0, "rank one": 0}
    for k in range(1000):
        sigma = random_pure(2, rng).density() if k % 3 == 0 else random_density(2, rng)
        rho = sigma if k % 7 == 0 else random_pure(2, rng).density() if k % 2 else random_density(2, rng)
        level = float(rng.uniform(0.01, 0.99))
        if k % 5 == 0:
            a = float(rng.uniform(0.5, 1.0))
            off = np.sqrt(a * (1.0 - a)) * float(rng.uniform()) * np.exp(2j * np.pi * float(rng.uniform()))
            sigma, level = DensityMatrix(np.array([[a, np.conj(off)], [off, 1.0 - a]])), 0.5
            checked["c = 0"] += 1
        checked["rho = sigma"] += rho is sigma
        checked["rank one"] += k % 3 == 0 or k % 2 == 1
        candidates, golden = exact.beta(rho, sigma, level), exact.decimal_dual_beta(rho, sigma, level, "1e-42")
        assert Decimal("-1e-55") <= candidates - golden <= Decimal("1e-40"), (k, candidates, golden)
    assert min(checked.values()) >= 100

"""The qubit route: d = 2 pairs in closed form, checked against ``exact``."""

import importlib
import math

import numpy as np
import pytest

from qhtcert import (
    DensityMatrix,
    PureState,
    certify_condition,
    depolarize,
    error_probabilities,
    helstrom,
    radius_qht_pure,
    validate_density,
    worst_case_classifier,
)
from qhtcert import demo

import exact
from conftest import converged_margin, philox, random_density, random_pure

hel = importlib.import_module("qhtcert.helstrom")
oracle = importlib.import_module("qhtcert.oracle")

RHO = demo.adversarial_state().density()
SIGMA = demo.benign_state().density()


def unit_trace(rng) -> DensityMatrix:
    """A qubit sigma whose trace is exactly 1 in floating point, so that the
    stationarity condition of level 1/2 has c = 2L - Tr sigma = 0."""
    a = float(rng.uniform(0.5, 1.0))
    off = math.sqrt(a * (1.0 - a)) * float(rng.uniform(0.0, 1.0)) * np.exp(2j * math.pi * float(rng.uniform()))
    return DensityMatrix(np.array([[a, np.conj(off)], [off, 1.0 - a]]))


def qubit_pairs(rng):
    """(kind, sigma, rho) cycling through pure, mixed, rank-one, equal,
    near-identical and unit-trace pairs."""
    pure = lambda: random_pure(2, rng).density()  # noqa: E731
    mixed = lambda: random_density(2, rng)  # noqa: E731
    while True:
        yield "pure/pure", pure(), pure()
        yield "pure/mixed", pure(), mixed()
        yield "mixed/pure", mixed(), pure()
        yield "mixed/mixed", mixed(), mixed()
        sigma = pure()
        yield "rho = sigma pure", sigma, sigma
        sigma = mixed()
        yield "rho = sigma mixed", sigma, sigma
        eps = 10.0 ** float(rng.uniform(-9.0, -2.0))
        yield "near-identical", sigma, DensityMatrix((1.0 - eps) * sigma.matrix + eps * mixed().matrix)
        yield "unit trace", unit_trace(rng), mixed()


def level(rng) -> float:
    """Log-uniform in [1e-12, 1], or 1/2."""
    return 0.5 if rng.uniform() < 0.1 else 10.0 ** float(rng.uniform(-12.0, 0.0))


def test_qubit_route_matches_the_exact_reference():
    # 2000 pairs: helstrom's beta, read from its test M, is within 1e-14 of
    # the exact optimum, and no condition with an exact margin <= 0 is
    # certified.
    rng = philox(2701)
    pairs = qubit_pairs(rng)
    certified = 0
    for _ in range(2000):
        kind, sigma, rho = next(pairs)
        alpha0 = level(rng)
        test = helstrom(rho, sigma, alpha0)
        where = f"{kind} alpha0={alpha0!r}"
        assert abs(test.beta - float(exact.beta(rho, sigma, alpha0))) <= 1e-14, where
        assert abs(test.alpha - alpha0) <= 1e-14, where
        p_a = float(rng.uniform(0.5, 1.0))
        p_b = min(1.0 - p_a, level(rng))
        if certify_condition(sigma, rho, p_a, p_b):
            certified += 1
            assert exact.margin(sigma, rho, p_a, p_b) > 0, f"{where} pA={p_a!r} pB={p_b!r}"
    assert certified > 300


def test_no_qubit_condition_overclaims():
    # Pairs on the boundary of the condition: pure rho at 1 + 1e-15 times
    # the pure radius from sigma = |0>, and depolarized rho at the boundary
    # angle that the angle search finds.  Their exact margins lie within a
    # few ulps of 0, on either side; a verdict on the sign of the float
    # margin certified 2 of the pure and 21 of the mixed pairs with an exact
    # margin <= 0.  The allowance certifies none of them, and still every
    # pure pair 1e-12 inside the radius.
    rng = philox(1)
    sigma = PureState([1.0, 0.0]).density()
    certified = 0
    for _ in range(300):
        p_a = float(rng.uniform(0.55, 0.99))
        p_b = float(rng.uniform(0.0, 1.0 - p_a))
        phase = np.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
        for factor in (1.0 + 1e-15, 1.0 - 1e-12):
            theta = 2.0 * math.asin(factor * radius_qht_pure(p_a, p_b))
            rho = PureState([math.cos(theta / 2.0), phase * math.sin(theta / 2.0)]).density()
            if certify_condition(sigma, rho, p_a, p_b):
                assert exact.margin(sigma, rho, p_a, p_b) > 0, f"pA={p_a!r} pB={p_b!r} factor={factor}"
            else:
                assert factor > 1.0, f"pA={p_a!r} pB={p_b!r}"
    rng = philox(1)
    for _ in range(300):
        p_a = float(rng.uniform(0.55, 0.99))
        p_b = float(rng.uniform(0.0, 1.0 - p_a))
        p = float(rng.uniform(0.0, 0.5))
        phase = np.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))

        def rho_at(theta):
            return depolarize(PureState([math.cos(theta / 2.0), phase * math.sin(theta / 2.0)]).density(), p)

        radius = oracle._plane_boundary_radius(lambda theta: hel._condition_margin(sigma, rho_at(theta), p_a, p_b), p_a, p_b, 60)
        rho = rho_at(2.0 * math.asin(min(radius, 1.0)))
        if certify_condition(sigma, rho, p_a, p_b):
            certified += 1
            assert exact.margin(sigma, rho, p_a, p_b) > 0, f"pA={p_a!r} pB={p_b!r} p={p!r}"
    assert certified > 5


def test_qubit_conditions_decide_on_their_converged_margin():
    # The angle search steps on the verdict's margin, which is the converged
    # dual margin of a qubit pair only because each qubit search, level 0
    # too, yields once: a second yield would part the two, bit for bit.
    # 250 pairs of the eight kinds, each at pA = 1 (level 0), typed equal
    # levels and one random point, unequal unless pB = 1 - pA.
    rng = philox(2708)
    pairs = qubit_pairs(rng)
    for _ in range(250):
        kind, sigma, rho = next(pairs)
        top = float(rng.uniform(0.5, 1.0))
        for p_a, p_b in ((1.0, 0.0), (1.0, 0.2), (0.8, 0.2), (0.6, 0.4), (top, min(1.0 - top, level(rng)))):
            margin = hel._condition_margin(sigma, rho, p_a, p_b)
            assert margin.hex() == converged_margin(sigma, rho, p_a, p_b).hex(), f"{kind} pA={p_a!r} pB={p_b!r}"


def test_level_one_half_of_a_unit_trace_sigma():
    # c = 2L - Tr sigma = 0: the stationarity quadratic has a double root,
    # whose discriminant rounds negative when it is formed from the
    # quadratic's coefficients; unclamped, beta came out 0.37 off.
    rng = philox(2702)
    for k in range(60):
        sigma = unit_trace(rng) if k % 2 else PureState([1.0, 0.0]).density()
        rho = random_density(2, rng) if k % 3 else random_pure(2, rng).density()
        assert float(np.trace(sigma.matrix).real) == 1.0
        test = helstrom(rho, sigma, 0.5)
        assert abs(test.beta - float(exact.beta(rho, sigma, 0.5))) <= 1e-14, k


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_equal_states_sit_on_the_jump_at_t_one(kind):
    # rho = sigma: every level sits on the jump of alpha at t = 1, where
    # rho - t*sigma = 0, and beta = 1 - level.
    rng = philox(2703)
    for _ in range(10):
        sigma = random_pure(2, rng).density() if kind == "pure" else random_density(2, rng)
        for alpha0 in (1e-12, 0.05, 0.3, 0.5, 0.9):
            test = helstrom(sigma, sigma, alpha0)
            assert test.t == pytest.approx(1.0, abs=1e-12), alpha0
            assert abs(test.beta - float(exact.beta(sigma, sigma, alpha0))) <= 1e-14, alpha0
            assert abs(test.alpha - alpha0) <= 1e-15, alpha0
            if kind == "pure":
                # The plus set just below t = 1 is psi psi^H, so M = alpha0 * sigma.
                assert np.allclose(test.m, alpha0 * sigma.matrix, atol=1e-14), alpha0


def test_rank_one_pairs_and_the_exact_ends():
    rng = philox(2704)
    zero = PureState([1.0, 0.0]).density()
    for _ in range(40):
        for sigma, rho in ((random_pure(2, rng).density(), random_pure(2, rng).density()), (zero, random_density(2, rng))):
            for alpha0 in (1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-12):
                assert abs(helstrom(rho, sigma, alpha0).beta - float(exact.beta(rho, sigma, alpha0))) <= 1e-14, alpha0
            # alpha0 = 1 is the test 1; at alpha0 = 0 a sigma with an exact
            # kernel gives the exact beta of its kernel projection.
            assert abs(helstrom(rho, sigma, 1.0).beta - float(exact.beta(rho, sigma, 1.0))) <= 1e-15
        assert abs(helstrom(rho, zero, 0.0).beta - float(exact.beta(rho, zero, 0.0))) <= 1e-15
        mixed = random_density(2, rng)
        assert helstrom(rho, mixed, 0.0).beta == 1.0 == float(exact.beta(rho, mixed, 0.0))


def test_a_level_at_or_above_the_trace_of_sigma_takes_the_lower_end():
    # Tr sigma = 1 - 5e-10 passes validate_density: q0 = 1 and M = P_plus(lo).
    sigma = validate_density(np.diag([0.6, 0.4 - 5e-10]))
    for rho in (validate_density(np.diag([0.5, 0.5])), random_density(2, philox(2705)), PureState([0.6, 0.8]).density()):
        test = helstrom(rho, sigma, 0.9999999998)
        *_, (_, _, (at_lo, at_hi)) = hel._tau_search(hel._Route(rho, sigma), 0.9999999998)
        assert test.q0 == 1.0 and np.allclose(test.m, at_lo.plus(), atol=0.0)
        error_probabilities(test.m, sigma, rho)
        assert test.beta <= 1e-12


@pytest.mark.parametrize("off", [1e-170, 1e-158, 3e-160j])
def test_tiny_off_diagonals(off):
    # Eigenvectors of a near-multiple of 1: normalized as sqrt(2 rad (rad +
    # |h|)), the norm underflowed to 0 at rad = 1e-170 (a ZeroDivisionError)
    # and to a subnormal, off by up to 1e-3, at rad = 1e-158.
    sigma = DensityMatrix(np.array([[0.5, np.conj(off)], [off, 0.5]]))
    tilted = DensityMatrix(np.array([[0.7, 1e-165], [1e-165, 0.3]]))
    for rho in (random_density(2, philox(2707)), PureState([0.6, 0.8j]).density(), tilted, sigma):
        for alpha0 in (0.0, 1e-9, 0.1, 0.5):
            test = helstrom(rho, sigma, alpha0)
            assert abs(test.beta - float(exact.beta(rho, sigma, alpha0))) <= 1e-14, alpha0
            assert abs(test.alpha - alpha0) <= 1e-14, alpha0
        for p_a, p_b in ((0.9, 0.05), (0.6, 0.3)):
            margin = exact.margin(sigma, rho, p_a, p_b)
            assert certify_condition(sigma, rho, p_a, p_b) is (margin > 0) or abs(margin) <= 1e-12


def test_tiny_levels_against_the_exact_reference():
    # The tiny-level pair of test_helstrom.py at its tolerance.
    sigma = DensityMatrix(np.diag([1.0 - 1e-10, 1e-10]))
    for alpha0 in (1e-12, 1e-16, 1e-20):
        test = helstrom(RHO, sigma, alpha0)
        assert abs(test.beta - float(exact.beta(RHO, sigma, alpha0))) <= 1e-12, alpha0
        assert abs(test.alpha - alpha0) <= 1e-15, alpha0


def test_qubit_pairs_take_no_decomposition(monkeypatch):
    # The solver's eigh, eigvalsh and Cholesky calls, counted by patched
    # numpy functions; worst_case_classifier's POVM check (states.Povm)
    # takes one eigvalsh per element, outside the solver.
    calls = dict.fromkeys(("eigh", "eigvalsh", "cholesky"), 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    rng = philox(2706)
    pairs = qubit_pairs(rng)
    cases = [next(pairs) for _ in range(40)]
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    for kind, sigma, rho in cases:
        for alpha0 in (0.0, 1e-9, 0.2, 0.5, 1.0):
            helstrom(rho, sigma, alpha0)
        for p_a, p_b in ((1.0, 0.2), (0.8, 0.2), (0.9, 0.05), (0.7, 0.1)):
            certify_condition(sigma, rho, p_a, p_b)
            hel._condition_margin(sigma, rho, p_a, p_b)
        assert calls == {"eigh": 0, "eigvalsh": 0, "cholesky": 0}, kind
        worst_case_classifier(sigma, rho, 0.8, 0, 1)
        assert calls == {"eigh": 0, "eigvalsh": 2, "cholesky": 0}, kind
        calls["eigvalsh"] = 0


def test_the_worked_example_certifies_at_every_tiny_level():
    # From pB = 1e-61 down, the stationary point of the rank-one region lies
    # past T_MAX (t = 1.4e32 at 1e-65).  g there is taken at T_MAX, a sound
    # lower bound, so a smaller pB keeps the verdict of a larger one.
    for p_b in (0.0, 1e-12, 1e-40, 1e-65, 1e-100, 1e-300):
        assert certify_condition(SIGMA, RHO, 0.9, p_b), p_b

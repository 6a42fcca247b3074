import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhtcert import (
    DensityMatrix,
    PureState,
    certify_condition,
    depolarize,
    error_probabilities,
    helstrom,
    pure_beta_closed_form,
    signed_projections,
    trace_distance,
    validate_density,
)
from qhtcert.errors import (
    DimMismatch,
    InvalidProbabilityOrder,
    InvalidTestOperator,
    NegativeT,
    SandwichViolated,
)
from qhtcert.helstrom import T_TOL, _condition_levels, _condition_margin
from qhtcert import bounds, demo
from qhtcert.states import _rank_one_factor, is_rank_one

from conftest import _alpha_plus, _secular_point, converged_margin, philox, random_density, random_pure, sample_test_operators
from exact import decimal_dual_beta

hel = importlib.import_module("qhtcert.helstrom")

SIGMA = demo.benign_state().density()
RHO = demo.adversarial_state().density()
OVERLAP_SQ = 0.75


# ---------------------------------------------------------------------------
# independent oracles


def tau_closed_form(overlap_sq: float, alpha0: float) -> float:
    """Threshold for pure pairs, solved analytically from the 2x2 eigenproblem."""
    if alpha0 >= overlap_sq:
        return 0.0
    return 2.0 * overlap_sq - 1.0 - (2.0 * alpha0 - 1.0) * math.sqrt(
        overlap_sq * (1.0 - overlap_sq) / (alpha0 * (1.0 - alpha0))
    )


def dual_beta(rho, sigma, level) -> float:
    """Optimal beta from the Lagrange dual, 1 - min_{t >= 0} t * level +
    Tr[(rho - t*sigma)_+], by golden-section search on the convex objective."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def f(t: float) -> float:
        w = np.linalg.eigvalsh(rho.matrix - t * sigma.matrix)
        return t * level + float(np.sum(w[w > 0.0]))

    hi = 1.0
    while f(2.0 * hi) < f(hi):
        hi *= 2.0
    lo, hi = 0.0, 2.0 * hi
    a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
    fa, fb = f(a), f(b)
    best = min(f(lo), fa, fb)
    while hi - lo > 1e-15 * hi:
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - golden * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + golden * (hi - lo)
            fb = f(b)
        best = min(best, fa, fb)
    return 1.0 - best


def tau_grid_scan(rho, sigma, alpha0, t_max=8.0, steps=4000) -> float:
    """Coarse independent location of inf{t : alpha(P_plus(t)) <= alpha0}."""
    ts = np.linspace(0.0, t_max, steps)
    for t in ts:
        if _alpha_plus(rho, sigma, float(t), 1e-8) <= alpha0:
            return float(t)
    return math.inf


def tau_bisection(rho, sigma, level, lambda_tol=0.0) -> tuple[float | None, float]:
    """Reference threshold search: doubling, then plain bisection on _alpha_plus.
    Returns the bracket (lo, hi), lo None when the threshold is t = 0."""

    def pred(t: float) -> bool:
        return _alpha_plus(rho, sigma, t, lambda_tol) <= level

    if pred(0.0):
        return None, 0.0
    lo, hi = 0.0, 1.0
    while not pred(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > T_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def bisection_search(route, level):
    """tau_bisection in the shape of helstrom's search: a generator whose one
    yield carries the dual bound of its bracket-end probes, raised by the
    dual step, and the probes: at a t = 0 threshold the lower end is the
    test 1, P_plus(0)'s probe with the whole space as its plus set."""
    rho, sigma = route.rho, route.sigma
    lo, hi = tau_bisection(rho, sigma, level)
    at_lo, at_hi = (hel._threshold_probe(rho, sigma, t) for t in (lo or 0.0, hi))
    if lo is None:
        at_lo = at_lo._replace(alpha=float(np.sum(at_lo.rate)), v=np.eye(at_lo.w.size), k=0)
    lower = max(1.0 - end.t * level - end.plus_trace for end in (at_lo, at_hi))
    yield hel._dual_step(route, level, lower, at_hi), 1.0 - level, (at_lo, at_hi)


def test_tau_bisection_matches_grid_scan(rng):
    for _ in range(5):
        a, b = random_pure(2, rng).density(), random_pure(2, rng).density()
        for alpha0 in (0.1, 0.35, 0.7):
            t_scan = tau_grid_scan(a, b, alpha0)
            if math.isinf(t_scan):
                continue
            assert helstrom(a, b, alpha0).t == pytest.approx(t_scan, abs=8.0 / 4000 + 1e-9)


def search_cases():
    """Fixed-seed (d, kind, sigma, rho) pairs covering smooth and jumping alpha(t)."""
    rng = philox(97531)
    for d in (2, 4, 16, 64):
        rank = max(1, d // 2)
        pure = lambda: random_pure(d, rng).density()  # noqa: E731
        diagonal = lambda: DensityMatrix(np.diag(rng.dirichlet(np.ones(d))))  # noqa: E731
        yield d, "pure/pure", pure(), pure()
        yield d, "pure/mixed", pure(), random_density(d, rng)
        yield d, "mixed/pure", random_density(d, rng), pure()
        yield d, "mixed/mixed", random_density(d, rng), random_density(d, rng)
        yield d, "low-rank", random_density(d, rng, rank), random_density(d, rng, rank)
        # Commuting pairs: alpha(t) is a pure step function.
        yield d, "diagonal", diagonal(), diagonal()
        # d - 2 eigenvalues of rho - t*sigma cross zero together at t = 1.
        yield d, "depolarized pure", depolarize(pure(), 0.3), depolarize(pure(), 0.3)


def test_threshold_search_matches_bisection(monkeypatch):
    eigh = np.linalg.eigh
    eigh_calls = [0]

    def counting_eigh(a, *args, **kwargs):
        eigh_calls[0] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    large_d_counts = []
    for d, kind, sigma, rho in search_cases():
        pure = is_rank_one(sigma)
        for alpha0 in (0.0, 0.05, 0.3, 0.7, 0.95):
            eigh_calls[0] = 0
            got = helstrom(rho, sigma, alpha0)
            where = f"d={d} {kind} alpha0={alpha0}"
            if pure:
                # The secular search takes one eigh of rho, level 0 one of
                # sigma, and beta comes from the dual; a qubit pair takes none.
                assert eigh_calls[0] == (d != 2), where
                want_t = tau_bisection(rho, sigma, alpha0)[1] if alpha0 > 0.0 else math.inf
                want_beta = dual_beta(rho, sigma, alpha0) if alpha0 > 0.0 else got.beta
            else:
                if d >= 16:
                    large_d_counts.append(eigh_calls[0])
                with monkeypatch.context() as m:
                    m.setattr(hel, "_tau_search", bisection_search)
                    want = helstrom(rho, sigma, alpha0)
                want_t, want_beta = want.t, want.beta
            if alpha0 > 0.0:
                assert abs(got.t - want_t) <= 1e-9 * max(1.0, want_t), where
            assert got.beta == pytest.approx(want_beta, abs=1e-9), where
    # Bisection needs 43-45 eigendecompositions per helstrom; the probe
    # search takes 4.86 here on mixed sigma.
    assert np.mean(large_d_counts) <= 4.9


def test_search_bounds_bracket_the_optimal_beta():
    for d, kind, sigma, rho in search_cases():
        if d > 16:
            continue
        for alpha0 in (0.05, 0.3, 0.7):
            yielded = list(hel._tau_search(hel._Route(rho, sigma), alpha0))
            _, end = yielded[-1][2]
            where = f"d={d} {kind} alpha0={alpha0}"
            optimal = dual_beta(rho, sigma, alpha0)
            for lower, upper, _ in yielded:
                assert lower <= optimal + 1e-12 and optimal - 1e-12 <= upper, where
            lowers, uppers, _ = zip(*yielded)
            assert list(lowers) == sorted(lowers) and list(uppers) == sorted(uppers, reverse=True), where
            assert end.t == helstrom(rho, sigma, alpha0).t, where
            # The final bracket pins beta down to the search's tolerance.
            assert uppers[-1] - lowers[-1] <= 1e-7, where


def counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_converged_newton_run_is_not_bisected(monkeypatch):
    # On this mixed qutrit pair (a qubit pair takes no probes) Newton reaches
    # the threshold from one side, so the far end of the bracket stays put
    # (t = 0 above, then a probe below and four above the level); once Newton
    # has converged, the step-length safeguard must close the bracket without
    # bisecting.  Bisecting whenever the bracket has not halved over two
    # steps takes 8 probes.  rho is positive definite, so t = 0 takes no
    # probe and the log starts at t = 1.
    rng = philox(2078)
    sigma, rho = random_density(3, rng), random_density(3, rng)
    probes = []
    probe = hel._threshold_probe

    def logged_probe(*args):
        probes.append(probe(*args))
        return probes[-1]

    monkeypatch.setattr(hel, "_threshold_probe", logged_probe)
    helstrom(rho, sigma, 0.1)
    assert probes[0].t == 1.0 and probes[0].alpha <= 0.1
    assert not any(p.alpha <= 0.1 for p in probes[1:-1])
    assert len(probes) <= 6


def passage_probe(t, alpha, slope, w, rate, k):
    w, rate = np.array(w), np.array(rate)
    return hel._Probe(t, alpha, math.nan, slope, math.nan, w, np.eye(w.size), rate, k)


# Above the level (alpha 0.5 at t = 1) the plus set's eigenvalues 0.2 and 0.4
# fall at rates 0.2 and 0.3 and cross the zero threshold near t = 2 and
# t = 7/3, each taking its rate from alpha; below it (alpha 0.2 at t = 3) the
# eigenvalues -0.2 and -0.6 outside the plus set cross it near t = 5/2 and
# t = 1 on the way left, each adding its rate.
ABOVE = dict(t=1.0, alpha=0.5, w=[-0.3, 0.2, 0.4], rate=[0.1, 0.2, 0.3], k=1)
BELOW = dict(t=3.0, alpha=0.2, w=[-0.6, -0.2, 0.5], rate=[0.3, 0.4, 0.3], k=2)
FLOOR_1, FLOOR_3 = hel.EIG_FLOOR * 2.0, hel.EIG_FLOOR * 4.0


@pytest.mark.parametrize(
    "probe, slope, level, guess",
    [
        # The slope reaches the level before the first crossing: the Newton point.
        (ABOVE, -1.0, 0.4, 1.0 - (0.5 - 0.4) / -1.0),
        (BELOW, -0.1, 0.21, 3.0 - (0.2 - 0.21) / -0.1),
        # A crossing's jump passes the level: exactly that crossing.
        (ABOVE, -0.1, 0.25, 1.0 + (0.2 - FLOOR_1) / 0.2),
        (BELOW, -0.1, 0.3, 3.0 + (-0.2 - FLOOR_3) / 0.4),
        # The level is passed in the smooth piece after one jump.
        (ABOVE, -0.2, 0.05, 1.0 - (0.5 - 0.2 - 0.05) / -0.2),
        (BELOW, -0.1, 0.7, 3.0 - (0.2 + 0.4 - 0.7) / -0.1),
        # With no slope the first jump falls short, and the second passes.
        (ABOVE, 0.0, 0.25, 1.0 + (0.4 - FLOOR_1) / 0.3),
        # Past the last crossing with no slope the model never reaches it.
        (BELOW, 0.0, 0.95, math.nan),
    ],
)
def test_first_passage_guess(probe, slope, level, guess):
    found = hel._first_passage(passage_probe(slope=slope, **probe), level)
    assert found == pytest.approx(guess, rel=1e-15, nan_ok=True)


def test_unit_probe_offers_no_guess():
    # slope 0 and rates 0: nothing moves, on either side of the level.
    rng = philox(31)
    unit = hel._unit_probe(random_density(4, rng), random_density(4, rng))
    assert unit.slope == 0.0 and not unit.rate.any()
    for level in (0.3, 1.0):
        assert math.isnan(hel._first_passage(unit, level))


def test_mixed_solves_take_few_probes(monkeypatch):
    # One first-passage guess per probe: on mixed/mixed and near-identical
    # pairs the mean probe count per solve and the same-side repeats (a
    # probe within the tolerance of the one before, on the same side of the
    # level with alpha unchanged) read 6.96 and 0.097 here, against 9.67 and
    # 0.40 with the Newton step tried before the crossing guess.
    probes = []
    probe = hel._threshold_probe

    def logged_probe(*args):
        probes.append(probe(*args))
        return probes[-1]

    monkeypatch.setattr(hel, "_threshold_probe", logged_probe)
    rng = philox(2828)
    solves = count = repeats = 0
    for d in (4, 16, 64):
        for near in (False, True):
            for _ in range(8):
                sigma, other = random_density(d, rng), random_density(d, rng)
                rho = DensityMatrix((1.0 - 1e-4) * sigma.matrix + 1e-4 * other.matrix) if near else other
                for level in (0.05, 0.2, 0.4):
                    probes.clear()
                    helstrom(rho, sigma, level)
                    solves, count = solves + 1, count + len(probes)
                    repeats += sum(
                        abs(b.t - a.t) <= T_TOL * max(1.0, b.t)
                        and (a.alpha <= level) == (b.alpha <= level)
                        and abs(a.alpha - b.alpha) <= 1e-9
                        for a, b in zip(probes, probes[1:])
                    )
    assert count / solves <= 7.31 and repeats / solves <= 0.102


def test_near_identical_pairs_get_the_optimal_test(monkeypatch):
    # rho = (1 - 1e-4) sigma + 1e-4 tau: the projection rotates steeply in t
    # without any eigenvalue crossing, so a test built from the eigenspaces at
    # one t misses the optimum, and only the bracket-end mixture attains it.
    rng = philox(5)
    cases = []
    for d in (4, 16, 64):
        sigma = random_density(d, rng)
        rho = DensityMatrix((1.0 - 1e-4) * sigma.matrix + 1e-4 * random_density(d, rng).matrix)
        for alpha0 in (0.05, 0.3, 0.7, 0.95):
            cases.append((f"d={d} alpha0={alpha0}", sigma, rho, alpha0, dual_beta(rho, sigma, alpha0)))
    calls = {"eigh": 0, "probe": 0, "search": 0}
    monkeypatch.setattr(np.linalg, "eigh", counting(calls, "eigh", np.linalg.eigh))
    monkeypatch.setattr(hel, "_threshold_probe", counting(calls, "probe", hel._threshold_probe))
    monkeypatch.setattr(hel, "_tau_search", counting(calls, "search", hel._tau_search))
    for where, sigma, rho, alpha0, optimal in cases:
        calls.update(eigh=0, probe=0, search=0)
        test = helstrom(rho, sigma, alpha0)
        assert abs(test.beta - optimal) <= 1e-12, where
        assert abs(test.alpha - alpha0) <= 1e-12, where
        # One eigendecomposition per search probe, and one search.
        assert calls["eigh"] == calls["probe"] and calls["search"] == 1, where


def test_zero_level_is_the_kernel_of_sigma(monkeypatch):
    # The optimal test at alpha0 = 0 is the projection onto ker sigma,
    # beta = 1 - Tr[rho Pi_ker], from one eigh of sigma, pure or not:
    # rank-deficient and pure sigma at d = 64, and Haar pure and exactly
    # rank-one sigma at d = 3, 4 and 16.
    cases = [(f"d=64 {kind}", sigma, rho) for d, kind, sigma, rho in search_cases() if d == 64 and kind in ("low-rank", "pure/mixed")]
    rng = philox(3200)
    for d in (3, 4, 16):
        basis = np.zeros(d)
        basis[d // 2] = 1.0
        haar, exact_pure = random_pure(d, rng).density(), PureState(basis).density()
        assert _rank_one_factor(haar)[1] > 0.0 and _rank_one_factor(exact_pure)[1] == 0.0
        cases += [(f"d={d} Haar pure", haar, random_density(d, rng)), (f"d={d} rank-one", exact_pure, random_density(d, rng))]
    calls = {"eigh": 0}
    monkeypatch.setattr(np.linalg, "eigh", counting(calls, "eigh", np.linalg.eigh))
    for kind, sigma, rho in cases:
        _, v = np.linalg.eigh(sigma.matrix)
        kernel = v[:, : sigma.dim - np.linalg.matrix_rank(sigma.matrix)]
        exact = 1.0 - float(np.real(np.trace(rho.matrix @ kernel @ kernel.conj().T)))
        calls["eigh"] = 0
        test = helstrom(rho, sigma, 0.0)
        assert abs(test.beta - exact) <= 1e-12, kind
        assert test.alpha <= 1e-12, kind
        assert calls["eigh"] == 1, kind


def test_tiny_levels_reach_the_optimum():
    # An exactly rank-one sigma at d = 3 takes the secular search, whose
    # bounds give up nothing for purity, and finds the optimum down to 1e-20.
    # The pure rho keeps the worked example's overlap, so the closed form holds.
    sigma = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
    rho = PureState(np.array([math.sqrt(OVERLAP_SQ), 0.5 * math.sqrt(0.5), 0.5j * math.sqrt(0.5)])).density()
    for alpha0 in (1e-13, 1e-16, 1e-20):
        beta_closed, _ = pure_beta_closed_form(OVERLAP_SQ, 1.0 - alpha0, 0.0)
        assert helstrom(rho, sigma, alpha0).beta == pytest.approx(beta_closed, abs=1e-9), alpha0
    # A mixed sigma takes threshold probes.  The threshold sits on a jump of
    # alpha at t ~ 2.5e9, where the positive eigenvalue of rho - t*sigma
    # falls through the zero rule EIG_FLOOR * (1 + t) ~ 2.5e-4; the mixed
    # test attains the level and the dual step proves it optimal.
    sigma = DensityMatrix(np.diag([1.0 - 1e-10, 1e-10]))
    for alpha0 in (1e-12, 1e-16, 1e-20):
        test = helstrom(RHO, sigma, alpha0)
        assert abs(test.beta - float(decimal_dual_beta(RHO, sigma, alpha0))) <= 1e-12, alpha0
        assert abs(test.alpha - alpha0) <= 1e-15, alpha0


def test_a_dual_gap_above_gap_tol_raises(monkeypatch):
    # Every solve proves its test optimal; with a negative tolerance no proof
    # can pass, so the construction must raise instead of returning the test.
    monkeypatch.setattr(hel, "GAP_TOL", -1.0)
    with pytest.raises(SandwichViolated, match="exceeds the dual bound"):
        helstrom(RHO, DensityMatrix(np.diag([0.6, 0.4])), 0.3)


def test_a_haar_pure_sigma_cannot_prove_a_tiny_level():
    # A Haar pure sigma at d >= 3 has a purity residual of about 1e-16, never
    # 0, and the secular search's dual gives up t * sqrt(d) times it: past
    # GAP_TOL at the threshold t ~ 7e7 of level 1e-18.
    rng = philox(2630)
    sigma, rho = random_pure(16, rng).density(), random_density(16, rng)
    assert _rank_one_factor(sigma)[1] > 0.0
    with pytest.raises(SandwichViolated, match="exceeds the dual bound"):
        helstrom(rho, sigma, 1e-18)


def test_secular_search_stops_at_two_to_the_100():
    # At level 1e-80 the root y of a pure sigma lies near 1e40, past Y_MAX.
    rng = philox(2631)
    sigma, rho = random_pure(4, rng).density(), random_density(4, rng)
    with pytest.raises(SandwichViolated, match="no t <= 2\\^100"):
        helstrom(rho, sigma, 1e-80)


def test_secular_search_bisects_where_alpha_is_flat():
    # Just below alpha0 = alpha(y -> 0) the search probes small y, where
    # alpha rounds to alpha0 and its Newton model has no gap to step on: the
    # guess is NaN there, and the search bisects to the optimum.
    rng = philox(2632)
    sigma, rho = random_pure(4, rng).density(), random_density(4, rng)
    pencil = hel._Route(rho, sigma).pencil
    alpha0 = hel._secular_point(pencil, -math.inf, 0.5).alpha
    assert hel._secular_point(pencil, math.log(1e-30), 0.5).alpha == alpha0
    level = alpha0 * (1.0 - 1e-12)
    test = helstrom(rho, sigma, level)
    assert abs(test.beta - dual_beta(rho, sigma, level)) <= 1e-12
    assert abs(test.alpha - level) <= 1e-12


def test_probe_doubling_stops_at_two_to_the_100():
    # A validated state cannot get here: the plus set of rho - t*sigma empties
    # by t ~ 1e13, once EIG_FLOOR * (1 + t) passes lambda_max(rho).  A bare
    # rho with an eigenvalue of 1e20 keeps alpha above 1e-40 past t = 2^100,
    # and without the guard the doubling would never end.
    rho = DensityMatrix(np.diag([0.0, 0.0, 1e20]))
    sigma = validate_density(np.diag([0.5, 0.5 - 1e-20, 1e-20]))
    with pytest.raises(SandwichViolated, match="no t <= 2\\^100"):
        helstrom(rho, sigma, 1e-40)


def test_a_search_that_reaches_its_cap_ends_on_its_bounds():
    # Both searches above stop at 2^100 with no upper end; their last step
    # carries the ends (at_lo, None) and sound bounds, and ``helstrom`` alone
    # turns the unreached level into an error.
    rng = philox(2631)
    sigma, rho = random_pure(4, rng).density(), random_density(4, rng)
    bare = (DensityMatrix(np.diag([0.0, 0.0, 1e20])), validate_density(np.diag([0.5, 0.5 - 1e-20, 1e-20])), 1e-40)
    for rho, sigma, level in ((rho, sigma, 1e-80), bare):
        *_, (lower, upper, (at_lo, at_hi)) = hel._tau_search(hel._Route(rho, sigma), level)
        assert at_lo is not None and at_hi is None
        assert lower <= upper == 1.0 - level


def test_subnormal_levels_raise_no_zero_division():
    # At level 5e-324 the secular search's first Newton model divides by
    # alpha0 * level, which underflows to 0 once alpha0 < 1/2: the model is
    # infinite, so the step goes to the top of the bracket, and a Haar pure
    # sigma's search ends at its cap on its bounds.
    rng = philox(3310)
    underflows = 0
    for d in (3, 4, 8) * 4:
        sigma, rho = random_pure(d, rng).density(), random_density(d, rng, rank=d - 1)
        alpha0 = hel._secular_point(hel._Route(rho, sigma).pencil, -math.inf, 5e-324).alpha
        underflows += alpha0 * 5e-324 == 0.0
        assert isinstance(certify_condition(sigma, rho, 0.9, 5e-324), bool)
        with pytest.raises(SandwichViolated, match="no t <= 2\\^100"):
            helstrom(rho, sigma, 5e-324)
    assert underflows > 0


def condition_pairs():
    """(kind, sigma, rho) at d in {2, 3, 4, 16}: Haar pure, exactly rank-one,
    full-rank mixed and rank-deficient sigma, each against a pure and a
    mixed rho, twice."""
    rng = philox(3300)
    for d in (2, 3, 4, 16):
        for _ in range(2):
            basis = np.zeros(d)
            basis[int(rng.integers(d))] = 1.0
            sigmas = {
                "Haar pure": random_pure(d, rng).density(),
                "rank-one": PureState(basis).density(),
                "mixed": random_density(d, rng),
                "rank-deficient": random_density(d, rng, rank=max(1, d // 2)),
            }
            for kind, sigma in sigmas.items():
                yield f"d={d} {kind}/pure", sigma, random_pure(d, rng).density()
                yield f"d={d} {kind}/mixed", sigma, random_density(d, rng)


def test_every_valid_condition_is_decided():
    # The dual at any probed t bounds beta from below, so a condition decides
    # at every valid (pA, pB), down to subnormal pB, whatever the route and
    # whether or not a search reaches its cap.  ``helstrom`` proves each
    # level or raises SandwichViolated.  Where a level's search reaches its
    # cap (a Haar pure sigma at tiny levels), the margin stays below
    # beta*(1 - pA) + beta*(pB) - 1 <= beta*(1 - pA) + beta*(0) - 1, which
    # the optimal tests bound from above.
    p_bs = (0.0, 5e-324, 1e-310, 1e-300, 1e-70, 1e-40, 1e-12, 0.1)
    p_as = (0.9, 1.0 - 1e-12)
    decided = capped_conditions = 0
    for kind, sigma, rho in condition_pairs():
        betas, capped = {}, set()
        for level in {1.0 - p_a for p_a in p_as} | set(p_bs):
            try:
                betas[level] = helstrom(rho, sigma, level).beta
            except SandwichViolated as exc:
                betas[level] = None
                if str(exc).startswith("no t <= 2^100"):
                    capped.add(level)
        for p_a in p_as:
            for p_b in p_bs:
                verdict = certify_condition(sigma, rho, p_a, p_b)
                margin = _condition_margin(sigma, rho, p_a, p_b)
                assert verdict is (margin > 0.0), (kind, p_a, p_b)
                if capped & set(_condition_levels(p_a, p_b)) and betas[1.0 - p_a] is not None:
                    assert margin <= betas[1.0 - p_a] + betas[0.0] - 1.0 + 1e-12, (kind, p_a, p_b)
                    capped_conditions += 1
                decided += 1
    assert decided >= 1000 and capped_conditions > 0


def pure_edge_cases():
    """(d, kind, sigma, rho, levels) with a pure sigma = psi psi^H at the edges
    of the secular search."""
    rng = philox(7)
    for d in (1, 2, 4, 64):
        psi = random_pure(d, rng).amplitudes
        sigma = DensityMatrix(np.outer(psi, psi.conj()))
        # Zero variance of lam under |c|^2: every level sits on the jump of
        # alpha at t = 1.
        yield d, "rho = sigma", sigma, sigma, (0.05, 0.3, 0.7)
        if d == 1:
            continue
        # psi orthogonal to supp rho: all of psi's weight lies in ker rho.
        g = rng.standard_normal((d, max(1, d // 2))) + 1j * rng.standard_normal((d, max(1, d // 2)))
        g -= np.outer(psi, psi.conj() @ g)
        m = g @ g.conj().T
        yield d, "psi in ker rho", sigma, DensityMatrix(m / np.trace(m).real), (0.05, 0.3, 0.7)
        # ker rho & psi^perp != 0 from d = 4 on.
        yield d, "rank-deficient", sigma, random_density(d, rng, max(1, d // 4)), (0.05, 0.3, 0.7)
        # Full-rank rho: alpha jumps from 1 to 1 - S_1(0)^2/S_2(0) at
        # t = 1/S_1(0), S_k(0) = <psi|rho^-k|psi>; levels above it and just below.
        rho = random_density(d, rng)
        inv = np.linalg.inv(rho.matrix)
        s1, s2 = np.vdot(psi, inv @ psi).real, np.vdot(psi, inv @ inv @ psi).real
        jump = 1.0 - s1 * s1 / s2
        yield d, "full rank", sigma, rho, (0.05, 0.3, 0.5 * (1.0 + jump), jump * (1.0 - 1e-9))


def test_pure_sigma_edge_cases_get_the_optimal_test():
    for d, kind, sigma, rho, levels in pure_edge_cases():
        for alpha0 in levels:
            where = f"d={d} {kind} alpha0={alpha0}"
            test = helstrom(rho, sigma, alpha0)
            assert abs(test.beta - dual_beta(rho, sigma, alpha0)) <= 1e-12, where
            assert abs(test.alpha - alpha0) <= 1e-12, where
            if kind == "rho = sigma":
                assert test.t == pytest.approx(1.0, abs=1e-9), where
            elif kind == "psi in ker rho":
                assert test.t == 0.0 and test.beta <= 1e-12, where
            elif kind == "full rank" and alpha0 > 0.3:
                # On the jump, or just below it: t = 1/S_1(0) = 1/Tr[sigma rho^-1].
                jump_t = 1.0 / np.trace(sigma.matrix @ np.linalg.inv(rho.matrix)).real
                assert test.t == pytest.approx(jump_t, rel=1e-6), where


def test_pure_sigma_conditions_match_the_optimal_tests():
    # pA = 1 (a level-0 test) and typed equal levels such as (0.8, 0.2).
    checked = 0
    for d, kind, sigma, rho, _ in pure_edge_cases():
        for p_a, p_b in ((1.0, 0.0), (1.0, 0.2), (0.8, 0.2), (0.9, 0.05), (0.7, 0.1)):
            where = f"d={d} {kind} pA={p_a} pB={p_b}"
            levels = dict.fromkeys(_condition_levels(p_a, p_b))
            margin = 2.0 / len(levels) * sum(helstrom(rho, sigma, level).beta for level in levels) - 1.0
            assert converged_margin(sigma, rho, p_a, p_b) == pytest.approx(margin, abs=1e-12), where
            if abs(margin) > 1e-9:
                assert certify_condition(sigma, rho, p_a, p_b) == (margin > 0.0), where
                checked += 1
    assert checked > 60


def test_pure_sigma_takes_one_eigh(monkeypatch):
    cases = [(d, kind, sigma, rho) for d, kind, sigma, rho in search_cases() if d <= 16 and is_rank_one(sigma)]
    cases += [(d, kind, sigma, rho) for d, kind, sigma, rho, _ in pure_edge_cases() if d <= 4]
    calls = {"eigh": 0, "eigvalsh": 0}
    monkeypatch.setattr(np.linalg, "eigh", counting(calls, "eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(calls, "eigvalsh", np.linalg.eigvalsh))
    for d, kind, sigma, rho in cases:
        for alpha0 in (0.0, 0.05, 0.3, 0.7, 0.95):
            calls.update(eigh=0, eigvalsh=0)
            helstrom(rho, sigma, alpha0)
            # One eigh of rho, or at level 0 of sigma, whose kernel is the
            # test; none for a qubit pair, which takes the closed form.
            assert calls == {"eigh": int(d != 2), "eigvalsh": 0}, f"d={d} {kind} alpha0={alpha0}"
        for p_a, p_b in ((1.0, 0.0), (1.0, 0.2), (0.8, 0.2), (0.9, 0.05), (0.7, 0.1)):
            calls.update(eigh=0, eigvalsh=0)
            certify_condition(sigma, rho, p_a, p_b)
            # Positive levels share the one eigh of rho; a zero level takes sigma's.
            kinds = {level > 0.0 for level in _condition_levels(p_a, p_b)}
            assert calls == {"eigh": int(d != 2) * len(kinds), "eigvalsh": 0}, f"d={d} {kind} pA={p_a} pB={p_b}"


def secular_pencil(rho, sigma):
    """The pencil of the secular search for a pure sigma at any d; the route
    sends qubit pairs to the closed form instead, but the sums are the same."""
    return hel._Pencil(rho, *_rank_one_factor(sigma))


def test_secular_sums_stay_finite_at_the_ends():
    # Runs under filterwarnings = error::RuntimeWarning, so an overflow or a
    # 0/0 in the secular sums fails here.
    for d, kind, sigma, rho, _ in pure_edge_cases():
        pencil = secular_pencil(rho, sigma)
        for s in (-math.inf, math.log(hel.Y_MIN), -20.0, 0.0, 20.0, math.log(hel.Y_MAX)):
            for level in (1e-300, 1e-20, 0.3, 1.0 - 1e-16):
                point = hel._secular_point(pencil, s, level)
                values = (point.t, point.alpha, point.slope, point.beta, point.dual)
                assert all(math.isfinite(v) for v in values), f"d={d} {kind} s={s} {values}"
                assert 0.0 <= point.alpha <= pencil.s0 + 1e-12 and point.slope <= 0.0, f"d={d} {kind} s={s}"
    # The qubit route drops candidates past T_MAX, so a threshold beyond it
    # leaves a dual gap that raises.
    with pytest.raises(SandwichViolated):
        helstrom(RHO, SIGMA, 1e-300)
    assert helstrom(RHO, SIGMA, 1.0 - 1e-16).beta <= 1e-12


def test_secular_point_matches_the_numpy_reference():
    # The scalar loops against the same sums as numpy vector expressions
    # (conftest._secular_point), with and without weight of psi on ker rho.
    # Sums of non-negative terms (t, alpha, slope, r, r2) agree to 1e-14
    # relative; beta and the dual add terms of size 1 and t, and agree to
    # 1e-14 of those.  Python floats raise ZeroDivisionError or OverflowError
    # where numpy warned, so reaching the comparison shows there is neither.
    rng = philox(2629)
    checked = {True: 0, False: 0}
    for d in (2, 3, 4, 16, 64):
        for _ in range(4):
            sigma = random_pure(d, rng).density()
            for rho in (random_density(d, rng), random_density(d, rng, max(1, d // 2))):
                pencil = secular_pencil(rho, sigma)
                for s in (-math.inf, math.log(hel.Y_MIN), -30.0, -3.0, -0.5, 0.0, 2.0, 25.0, math.log(hel.Y_MAX)):
                    for level in (1e-12, 0.3, 0.9):
                        where = f"d={d} w_ker={pencil.w_ker} s={s} level={level}"
                        point = hel._secular_point(pencil, s, level)
                        t, alpha, slope, beta, dual, r, r2 = _secular_point(pencil, s, level)
                        for got, want, scale in (
                            (point.t, t, abs(t)),
                            (point.alpha, alpha, abs(alpha)),
                            (point.slope, slope, abs(slope)),
                            (point.r2, r2, abs(r2)),
                            (point.beta, beta, max(abs(beta), 1.0)),
                            (point.dual, dual, max(abs(dual), 1.0 + t)),
                        ):
                            assert abs(got - want) <= 1e-14 * scale, where
                        assert np.allclose(point.r, r, rtol=1e-14, atol=0.0), where
                checked[pencil.w_ker > 0.0] += 1
    assert min(checked.values()) >= 10


def _tilted(trace: float, angle: float) -> np.ndarray:
    """A pure qutrit sigma of the given trace, tilted by angle from |0> toward |2>."""
    psi = math.sqrt(trace) * np.array([math.cos(angle), 0.0, math.sin(angle)])
    return np.outer(psi, psi)


@pytest.mark.parametrize(
    ("sigma", "rho"),
    [
        pytest.param(np.diag([0.6, 0.4 - 5e-10, 0.0]), np.diag([0.5, 0.5, 0.0]), id="mixed-rank-deficient-rho"),
        pytest.param(np.diag([0.6, 0.4 - 5e-10, 0.0]), np.diag([0.5, 0.3, 0.2]), id="mixed-full-rank-rho"),
        pytest.param(np.diag([0.6, 0.4 - 5e-10 - 1e-12, 1e-12]), np.diag([0.5, 0.5, 0.0]), id="mixed-full-rank-sigma"),
        pytest.param(_tilted(1.0 - 5e-10, 1e-7), np.diag([0.5, 0.5, 0.0]), id="pure-tilted-to-kernel"),
        pytest.param(_tilted(1.0 - 5e-10, 0.0), np.diag([0.5, 0.5, 0.0]), id="pure"),
    ],
)
def test_level_at_or_above_the_trace_of_sigma_takes_the_lower_end(sigma, rho):
    # validate_density accepts Tr sigma = 1 - 5e-10, below the level: the
    # mixture weight clamps at 1, and M = P_plus(lo) has alpha = Tr sigma.
    sigma, rho = validate_density(sigma), validate_density(rho)
    test = helstrom(rho, sigma, 0.9999999998)
    assert 0.0 <= test.q0 <= 1.0
    error_probabilities(test.m, sigma, rho)
    assert test.beta <= 1e-12


def test_every_search_ends_on_two_tests():
    # Mixed sigma against pure and rank-deficient rho, where many levels sit
    # at the threshold t = 0, whose lower end is the test 1.
    rng = philox(4242)
    for d in (2, 3, 4, 16):
        for _ in range(15):
            sigma = random_density(d, rng)
            for rho in (random_pure(d, rng).density(), random_density(d, rng, max(1, d // 2))):
                for level in (0.05, 0.3, 0.6, 0.9):
                    *_, (_, _, (at_lo, at_hi)) = hel._tau_search(hel._Route(rho, sigma), level)
                    where = f"d={d} level={level}"
                    assert at_lo is not None and at_hi is not None, where
                    assert at_lo.t <= at_hi.t and at_lo.alpha >= level >= at_hi.alpha, where


def eigh_saved_at_t_zero(monkeypatch, solve) -> int:
    """eigh calls of solve() with np.linalg.cholesky failing, so that every
    route probes t = 0 by eigh, minus those of solve() as it is."""
    calls = {"eigh": 0}
    monkeypatch.setattr(np.linalg, "eigh", counting(calls, "eigh", np.linalg.eigh))
    solve()
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "cholesky", lambda a: (_ for _ in ()).throw(np.linalg.LinAlgError()))
        calls["eigh"] = -calls["eigh"]
        solve()
    return calls["eigh"]


def test_positive_definite_rho_takes_no_eigh_at_t_zero(monkeypatch):
    # P_plus(0) = 1 when rho - 2 * EIG_FLOOR * 1 has a Cholesky factor: the
    # search starts from the test 1 with no eigh, and the solve matches the
    # one that decomposes rho at t = 0.
    rng = philox(2626)
    for d in (3, 4, 16, 64):  # a qubit pair takes no eigh at all
        for _ in range(3):
            sigma, rho = random_density(d, rng), random_density(d, rng)
            for alpha0 in (0.05, 0.3, 0.7):
                where = f"d={d} alpha0={alpha0}"
                assert eigh_saved_at_t_zero(monkeypatch, lambda: helstrom(rho, sigma, alpha0)) == 1, where
                assert helstrom(rho, sigma, alpha0).beta == pytest.approx(dual_beta(rho, sigma, alpha0), abs=1e-12), where
            for p_a, p_b in ((0.8, 0.1), (0.7, 0.2)):
                where = f"d={d} pA={p_a} pB={p_b}"
                assert eigh_saved_at_t_zero(monkeypatch, lambda: certify_condition(sigma, rho, p_a, p_b)) == 1, where


@pytest.mark.parametrize("smallest", [0.0, 1e-14, "pure"])
def test_rho_without_a_cholesky_factor_probes_t_zero(monkeypatch, smallest):
    # A pure rho, a zero eigenvalue and one of 1e-14 (below 2 * EIG_FLOOR)
    # leave P_plus(0) to an eigh.
    rng = philox(2627)
    probed = []
    probe = hel._threshold_probe

    def logged_probe(rho, sigma, t, *args):
        probed.append(t)
        return probe(rho, sigma, t, *args)

    monkeypatch.setattr(hel, "_threshold_probe", logged_probe)
    for d in (3, 4, 16):  # a qubit pair takes no probe
        sigma = random_density(d, rng)
        if smallest == "pure":
            rho = random_pure(d, rng).density()
        else:
            w = np.append(rng.dirichlet(np.ones(d - 1)) * (1.0 - smallest), smallest)
            v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            rho = DensityMatrix((v * w) @ v.conj().T)
        probed.clear()
        helstrom(rho, sigma, 0.3)
        assert probed[0] == 0.0, f"d={d}"
        probed.clear()
        certify_condition(sigma, rho, 0.8, 0.1)
        assert probed[0] == 0.0, f"d={d}"


def test_exact_zero_margins_stay_not_certified():
    # A mixed sigma against a pure rho at (1, 0.3): beta is 1 at level 0 and
    # 0 at the threshold t = 0, so the exact margin is 0, and the verdict is
    # the sign of roundoff (no rounding allowance yet).  The pure rho probes
    # t = 0 by eigh, and the test 1 takes P_plus(0)'s beta; with 1 - Tr rho
    # instead, these two of 364 pairs turn certified.
    rng = philox(2628)
    pairs = [(random_density(16, rng), random_pure(16, rng).density()) for _ in range(364)]
    for index in (160, 363):
        sigma, rho = pairs[index]
        assert not certify_condition(sigma, rho, 1.0, 0.3), index


def test_positive_definite_rho_at_a_level_above_the_trace_of_sigma_takes_the_test_one(monkeypatch):
    # Both bracket ends are the t = 0 probe of a positive definite rho, the
    # test 1, where g peaks: no eigh, no dual step, M = 1.
    sigma = validate_density(np.diag([0.6, 0.4 - 5e-10, 0.0]))
    rho = validate_density(np.diag([0.5, 0.3, 0.2]))
    calls = {"eig": 0}
    monkeypatch.setattr(np.linalg, "eigh", counting(calls, "eig", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(calls, "eig", np.linalg.eigvalsh))
    test = helstrom(rho, sigma, 0.9999999998)
    assert calls["eig"] == 0
    assert test.t == 0.0 and test.q0 == 1.0 and np.array_equal(test.m, np.eye(3)) and test.m.dtype == np.complex128
    assert test.beta <= 1e-15
    # The probe is its own lower end, with the alpha of the test 1.
    *_, (_, _, (at_lo, at_hi)) = hel._tau_search(hel._Route(rho, sigma), 0.9999999998)
    assert at_lo is at_hi and at_lo.alpha == pytest.approx(1.0 - 5e-10, abs=1e-15)


# ---------------------------------------------------------------------------
# signed projections


def test_t_zero_has_no_negative_part(rng):
    proj = signed_projections(random_density(3, rng), random_density(3, rng), 0.0)
    assert np.allclose(proj.p_minus, 0.0, atol=1e-12)


def test_t_zero_projections_of_a_positive_definite_rho_take_no_eigh(monkeypatch, rng):
    calls = {"eigh": 0}
    monkeypatch.setattr(np.linalg, "eigh", counting(calls, "eigh", np.linalg.eigh))
    for d in (2, 4, 16):
        proj = signed_projections(random_density(d, rng), random_density(d, rng), 0.0)
        assert np.array_equal(proj.p_plus, np.eye(d)), d
        assert not proj.p_zero.any() and not proj.p_minus.any(), d
    assert calls["eigh"] == 0


@pytest.mark.parametrize("t", [0.5, 1.0, 1.6547, 3.0])
def test_pure_pair_positive_part_is_rank_one(t):
    proj = signed_projections(RHO, SIGMA, t)
    assert np.trace(proj.p_plus).real == pytest.approx(1.0, abs=1e-9)


@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]), t=st.floats(0.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_projections_are_complete_and_orthogonal(seed, d, t):
    rng = philox(seed)
    proj = signed_projections(random_density(d, rng), random_density(d, rng), t)
    total = proj.p_plus + proj.p_zero + proj.p_minus
    assert np.allclose(total, np.eye(d), atol=1e-10)
    assert np.allclose(proj.p_plus @ proj.p_plus, proj.p_plus, atol=1e-9)
    assert np.allclose(proj.p_plus @ proj.p_minus, 0.0, atol=1e-9)


def test_signed_projections_input_errors(rng):
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(NegativeT):
            signed_projections(SIGMA, RHO, t)
    with pytest.raises(DimMismatch):
        signed_projections(SIGMA, random_density(3, rng), 1.0)


# ---------------------------------------------------------------------------
# error probabilities


def test_error_probabilities_extremes():
    assert error_probabilities(np.zeros((2, 2)), SIGMA, RHO) == (0.0, 1.0)
    assert error_probabilities(np.eye(2), SIGMA, RHO) == (1.0, 0.0)


def test_error_probabilities_of_optimal_demo_test():
    test = helstrom(RHO, SIGMA, 0.1)
    alpha, beta = error_probabilities(test.m, SIGMA, RHO)
    assert alpha == pytest.approx(0.1, abs=1e-9)
    assert beta == pytest.approx(0.44019237886467, abs=1e-8)


@pytest.mark.parametrize(
    ("call", "error", "fragment"),
    [
        pytest.param(lambda: helstrom(RHO, DensityMatrix(np.eye(3) / 3.0), 0.3), DimMismatch, "dimensions differ", id="helstrom-dims"),
        pytest.param(lambda: helstrom(RHO, SIGMA, -0.1), ValueError, r"alpha0 must lie in \[0, 1\]", id="helstrom-alpha0-below-0"),
        pytest.param(lambda: helstrom(RHO, SIGMA, 1.5), ValueError, r"alpha0 must lie in \[0, 1\]", id="helstrom-alpha0-above-1"),
        pytest.param(lambda: error_probabilities(np.eye(3), SIGMA, RHO), DimMismatch, "one dimension", id="error-probabilities-dims"),
    ],
)
def test_solver_input_raises_a_typed_error(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_error_probabilities_rejects_bad_operator():
    with pytest.raises(InvalidTestOperator):
        error_probabilities(np.eye(2) * 1.5, SIGMA, RHO)
    with pytest.raises(InvalidTestOperator):
        error_probabilities(np.array([[0.5, 0.4], [0.0, 0.5]]), SIGMA, RHO)
    # The Hermiticity check uses the package's one validation tolerance.
    with pytest.raises(InvalidTestOperator):
        error_probabilities(np.array([[0.5, 5e-9], [0.0, 0.5]]), SIGMA, RHO)


# ---------------------------------------------------------------------------
# tau


def test_tau_demo_value():
    want = tau_closed_form(OVERLAP_SQ, 0.1)
    assert want == pytest.approx(1.6547005383793, abs=1e-10)
    assert helstrom(RHO, SIGMA, 0.1).t == pytest.approx(want, abs=1e-9)


def test_tau_zero_when_level_above_overlap():
    # At alpha0 = |gamma|^2 exactly, roundoff may push the search one bracket
    # width above the true threshold 0.
    assert helstrom(RHO, SIGMA, 0.75).t == pytest.approx(0.0, abs=1e-9)
    assert helstrom(RHO, SIGMA, 0.9).t == 0.0


def test_tau_equal_states_is_one(rng):
    dm = random_density(3, rng)
    for alpha0 in (0.1, 0.5, 0.9):
        assert helstrom(dm, dm, alpha0).t == pytest.approx(1.0, abs=1e-9)


@given(seed=st.integers(0, 2**32 - 1), alpha0=st.floats(0.02, 0.98))
@settings(max_examples=30, deadline=None)
def test_tau_matches_closed_form_for_pure_pairs(seed, alpha0):
    rng = philox(seed)
    a, b = random_pure(2, rng), random_pure(2, rng)
    g2 = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    if g2 > 0.999 or abs(g2 - alpha0) < 1e-3:
        return
    got = helstrom(b.density(), a.density(), alpha0).t
    assert got == pytest.approx(tau_closed_form(g2, alpha0), abs=1e-7)


# ---------------------------------------------------------------------------
# helstrom construction


def test_helstrom_demo_beta():
    test = helstrom(RHO, SIGMA, 0.1)
    beta_closed, _ = pure_beta_closed_form(OVERLAP_SQ, 0.9, 0.1)
    assert test.beta == pytest.approx(beta_closed, abs=1e-8)
    assert test.beta == pytest.approx(0.44, abs=0.005)


def test_helstrom_equal_states():
    # rho - t*sigma = (1 - t) |psi><psi|: the bracket ends are P_plus = |psi><psi|
    # just below t = 1 and P_plus = 0 at t = 1, mixed at weight 0.1.
    test = helstrom(SIGMA, SIGMA, 0.1)
    assert test.t == pytest.approx(1.0, abs=1e-9)
    assert test.alpha == pytest.approx(0.1, abs=1e-9)
    assert test.beta == pytest.approx(0.9, abs=1e-9)
    assert np.allclose(test.m, 0.1 * SIGMA.matrix, atol=1e-9)


@pytest.mark.parametrize("alpha0", [0.0, 0.3, 1.0])
def test_helstrom_orthogonal_states_have_zero_beta(alpha0):
    one = PureState([0.0, 1.0]).density()
    test = helstrom(one, SIGMA, alpha0)
    assert test.beta == pytest.approx(0.0, abs=1e-9)


def test_helstrom_degenerate_levels():
    full = helstrom(RHO, SIGMA, 1.0)
    assert full.alpha == 1.0 and full.beta == 0.0
    none = helstrom(RHO, SIGMA, 0.0)
    assert none.alpha <= 1e-9
    # At alpha = 0 the best achievable beta for pure pairs is the overlap.
    assert none.beta == pytest.approx(OVERLAP_SQ, abs=1e-4)


def test_helstrom_operator_structure():
    test = helstrom(RHO, SIGMA, 0.1)
    proj = test.projections
    rebuilt = proj.p_plus + test.q0 * proj.p_zero
    assert np.allclose(test.m, rebuilt, atol=1e-10)
    w = np.linalg.eigvalsh(test.m)
    assert w[0] > -1e-9 and w[-1] < 1.0 + 1e-9


@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]), alpha0=st.floats(0.02, 0.98))
@settings(max_examples=40, deadline=None)
def test_helstrom_attains_requested_alpha(seed, d, alpha0):
    rng = philox(seed)
    test = helstrom(random_density(d, rng), random_density(d, rng), alpha0)
    assert test.alpha == pytest.approx(alpha0, abs=1e-9)


def test_sandwich_inequalities(rng):
    for d in (2, 3, 4):
        for _ in range(6):
            a, b = random_density(d, rng), random_density(d, rng)
            for alpha0 in (0.1, 0.3, 0.5, 0.7, 0.9):
                test = helstrom(a, b, alpha0)
                proj = test.projections
                a_plus = float(np.real(np.trace(b.matrix @ proj.p_plus)))
                a_zero = float(np.real(np.trace(b.matrix @ proj.p_zero)))
                assert a_plus <= alpha0 + 1e-9
                assert a_plus + a_zero >= alpha0 - 1e-9


def test_alpha_plus_monotone_in_t(rng):
    for d in (2, 3, 4):
        for _ in range(6):
            a, b = random_density(d, rng), random_density(d, rng)
            ts = np.sort(rng.uniform(0.0, 4.0, size=6))
            plus = [_alpha_plus(a, b, float(t), 1e-8) for t in ts]
            for lo, hi in zip(plus[1:], plus[:-1]):
                assert lo <= hi + 1e-9
            keep = [
                float(np.real(np.trace(b.matrix @ (
                    signed_projections(a, b, float(t)).p_plus
                    + signed_projections(a, b, float(t)).p_zero
                ))))
                for t in ts
            ]
            for lo, hi in zip(keep[1:], keep[:-1]):
                assert lo <= hi + 1e-9


def test_optimality_against_random_tests(rng):
    # No valid test with alpha(M) <= alpha0 may undercut the constructed beta,
    # and any test with alpha(M) >= 1 - alpha0 obeys 1 - beta(M) >= beta*.
    for d in (2, 3):
        for _ in range(4):
            a, b = random_density(d, rng), random_density(d, rng)
            for alpha0 in (0.1, 0.4, 0.8):
                best = helstrom(a, b, alpha0)
                for frac in (0.2, 0.7, 1.0):
                    target = max(alpha0 * frac - 1e-6, 0.0)
                    ms = sample_test_operators(d, 200, target, b.matrix, rng)
                    betas = 1.0 - np.real(np.einsum("ij,nji->n", a.matrix, ms))
                    assert betas.min() >= best.beta - 1e-8
                target2 = min(1.0 - alpha0 + 1e-6 + 0.1 * alpha0, 1.0)
                ms = sample_test_operators(d, 200, target2, b.matrix, rng)
                betas = 1.0 - np.real(np.einsum("ij,nji->n", a.matrix, ms))
                assert np.all(1.0 - betas >= best.beta - 1e-8)


@given(seed=st.integers(0, 2**32 - 1), p_a=st.floats(0.55, 0.99))
@settings(max_examples=30, deadline=None)
def test_generic_beta_matches_pure_closed_form(seed, p_a):
    rng = philox(seed)
    a, b = random_pure(2, rng), random_pure(2, rng)
    g2 = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    p_b = 1.0 - p_a
    if g2 <= max(p_b, 1.0 - p_a) + 1e-3 or g2 > 0.999:
        return
    beta_a, beta_b = pure_beta_closed_form(g2, p_a, p_b)
    got_a = helstrom(b.density(), a.density(), 1.0 - p_a).beta
    got_b = helstrom(b.density(), a.density(), p_b).beta
    assert got_a == pytest.approx(beta_a, abs=1e-8)
    assert got_b == pytest.approx(beta_b, abs=1e-8)


# ---------------------------------------------------------------------------
# robustness condition


def test_condition_examples():
    assert certify_condition(SIGMA, RHO, 0.9, 0.1) is False
    closer = demo.adversarial_state(0.9).density()
    assert certify_condition(SIGMA, closer, 0.9, 0.1) is True
    assert certify_condition(SIGMA, SIGMA, 0.9, 0.1) is True


def test_condition_typed_equal_levels_take_one_test(monkeypatch):
    # 1 - 0.8 = 0.19999999999999996, so (0.8, 0.2) misses an exact float test.
    calls = [0]
    search = hel._tau_search
    solve = hel.helstrom

    def counting_search(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(hel, "_tau_search", counting_search)
    p_a, p_b = 0.8, 0.2
    radius = bounds.radius_qht_pure(p_a, p_b)
    rng = philox(303)  # the pairs of acceptance criterion 3
    checked = 0
    for _ in range(300):
        sigma = random_pure(2, rng).density()
        rho = random_pure(2, rng).density()
        if abs(trace_distance(sigma, rho) - radius) <= 1e-6:
            continue
        calls[0] = 0
        verdict = certify_condition(sigma, rho, p_a, p_b)
        assert calls[0] == 1
        two_tests = solve(rho, sigma, 1.0 - p_a).beta + solve(rho, sigma, p_b).beta > 1.0
        assert verdict == two_tests
        checked += 1
    assert checked > 250


def test_condition_rejects_bad_order():
    with pytest.raises(InvalidProbabilityOrder):
        certify_condition(SIGMA, RHO, 0.4, 0.6)
    with pytest.raises(InvalidProbabilityOrder):
        certify_condition(SIGMA, RHO, 0.5, 0.5)


def test_condition_rejects_mismatched_dimensions(rng):
    with pytest.raises(DimMismatch):
        certify_condition(SIGMA, random_density(3, rng), 0.9, 0.1)
    with pytest.raises(DimMismatch):
        certify_condition(random_density(4, rng), RHO, 0.8, 0.2)


def test_condition_levels_share_their_probes(monkeypatch):
    # The two levels of a mixed-sigma condition step in lockstep and double t
    # alike (t = 0, 1, 2, 4, ...); a probe holds no level, so no t is
    # decomposed twice in one verdict, undecided verdicts that run to
    # convergence included.  (Past the doubling, the levels can take the
    # same eigenvalue-crossing guess from a shared probe some steps apart,
    # which the one-probe memo does not catch; no verdict here does.)
    unequal = ((0.8, 0.1), (0.7, 0.2), (0.9, 0.05), (0.6, 0.3), (0.95, 0.02), (0.85, 0.1), (0.65, 0.25), (0.75, 0.15))
    probed = []
    probe = hel._threshold_probe

    def logged_probe(rho, sigma, t, *args):
        probed.append(t)
        return probe(rho, sigma, t, *args)

    monkeypatch.setattr(hel, "_threshold_probe", logged_probe)
    rng = philox(4242)
    conditions = repeated = 0
    for d in (3, 4, 16):  # a qubit pair takes no probe
        for _ in range(70):
            sigma, rho = random_density(d, rng), random_density(d, rng)
            for p_a, p_b in unequal:
                probed.clear()
                _condition_margin(sigma, rho, p_a, p_b)
                conditions += 1
                repeated += len(probed) != len(set(probed))
    assert conditions == 3 * 70 * len(unequal) and repeated == 0


def test_condition_margin_never_exceeds_the_dual():
    # Near-identical pairs and pure (rank-deficient) sigma, where the betas of
    # constructed test operators came out above the optimum by up to 1e-7.
    rng = philox(61)
    cases = []
    for d in (4, 16, 64):
        pairs = []
        for eps in (1e-5, 1e-4, 1e-3):
            sigma = random_density(d, rng)
            pairs.append((sigma, DensityMatrix((1.0 - eps) * sigma.matrix + eps * random_density(d, rng).matrix)))
        sigma = random_pure(d, rng).density()
        pairs.append((sigma, random_density(d, rng)))
        pairs.append((sigma, DensityMatrix((1.0 - 1e-4) * sigma.matrix + 1e-4 * random_density(d, rng).matrix)))
        for sigma, rho in pairs:
            for p_a, p_b in ((0.8, 0.2), (0.7, 0.1), (0.9, 0.05)):
                level_a, level_b = _condition_levels(p_a, p_b)
                reference = dual_beta(rho, sigma, level_a) + dual_beta(rho, sigma, level_b) - 1.0
                cases.append((f"d={d} pA={p_a} pB={p_b} reference={reference}", sigma, rho, p_a, p_b, reference))
    for where, sigma, rho, p_a, p_b, reference in cases:
        assert _condition_margin(sigma, rho, p_a, p_b) <= reference + 1e-12, where
    # Run to convergence, the margin is the dual optimum itself.
    for where, sigma, rho, p_a, p_b, reference in cases:
        full = converged_margin(sigma, rho, p_a, p_b)
        assert full == pytest.approx(reference, abs=1e-12), where


def test_condition_needs_few_eigendecompositions(monkeypatch):
    calls = [0]

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    rng = philox(303)
    verdicts = 0
    for _ in range(100):
        # Mixed sigma, so that the probe search runs (a pure sigma takes one
        # eigh per verdict; see test_pure_sigma_takes_one_eigh), at d = 3,
        # since a qubit pair takes none.
        sigma, rho = random_density(3, rng), random_density(3, rng)
        for p_a in np.linspace(0.52, 0.98, 20):
            certify_condition(sigma, rho, float(p_a), 1.0 - float(p_a))
            verdicts += 1
    # 1.55 here.
    assert calls[0] / verdicts <= 2.6


def test_condition_at_a_zero_level_matches_the_optimal_tests(monkeypatch):
    # pA = 1 asks for a test at type-I error 0: the condition's search, its
    # converged margin and helstrom all answer it with the kernel of sigma.
    rng = philox(1001)
    checked = verdicts = 0
    calls = {"eig": 0}
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    for d in (2, 4):
        for _ in range(8):
            sigma = random_pure(d, rng).density()
            for rho in (random_pure(d, rng).density(), random_density(d, rng), random_density(d, rng, 1 + d // 2)):
                for p_b in (0.0, 0.1, 0.4):
                    where = f"d={d} pB={p_b}"
                    level_a, level_b = _condition_levels(1.0, p_b)
                    margin = helstrom(rho, sigma, level_a).beta + helstrom(rho, sigma, level_b).beta - 1.0
                    assert converged_margin(sigma, rho, 1.0, p_b) == pytest.approx(margin, abs=1e-12), where
                    with monkeypatch.context() as m:
                        m.setattr(np.linalg, "eigh", counting(calls, "eig", eigh))
                        m.setattr(np.linalg, "eigvalsh", counting(calls, "eig", eigvalsh))
                        verdict = certify_condition(sigma, rho, 1.0, p_b)
                    verdicts += 1
                    if abs(margin) <= 1e-6:
                        continue
                    assert verdict == (margin > 0.0), where
                    checked += 1
    assert checked > 120
    # sigma is pure: one eigh of rho for the level pB > 0, none at level 0.
    assert calls["eig"] / verdicts <= 1.0

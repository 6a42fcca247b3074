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
    random_density,
    random_pure,
    signed_projections,
    trace_distance,
)
from qhtcert.errors import (
    DimMismatch,
    InvalidProbabilityOrder,
    InvalidTestOperator,
    NegativeT,
    SandwichViolated,
)
from qhtcert.helstrom import DEFAULT_LAMBDA_TOL, T_TOL, _condition_levels, _condition_margin
from qhtcert.oracle import _dual_margin, sample_test_operators
from qhtcert import bounds, demo
from qhtcert.states import is_rank_one

from conftest import _alpha_plus, philox

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


def tau_bisection(rho, sigma, level, lambda_tol=DEFAULT_LAMBDA_TOL) -> tuple[float | None, float]:
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


def bisection_search(rho, sigma, level):
    """tau_bisection in the shape of helstrom's search: a generator that
    yields the dual bound of its bracket-end probes and returns them."""
    lo, hi = tau_bisection(rho, sigma, level)
    ends = (None if lo is None else hel._threshold_probe(rho, sigma, lo, level), hel._threshold_probe(rho, sigma, hi, level))
    yield max(end.dual for end in ends if end is not None), 1.0 - level
    return ends


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
                # The secular search takes one eigh of rho, none at level 0.
                # It has no zero band: on a jump of alpha its threshold is
                # exact, so the reference bisects with the floor
                # EIG_FLOOR * (1 + t) alone, and beta comes from the dual.
                assert eigh_calls[0] == (alpha0 > 0.0), where
                want_t = tau_bisection(rho, sigma, alpha0, 0.0)[1] if alpha0 > 0.0 else math.inf
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
            search = hel._tau_search(rho, sigma, alpha0)
            yielded = []
            while True:
                try:
                    yielded.append(next(search))
                except StopIteration as stop:
                    _, end = stop.value
                    break
            where = f"d={d} {kind} alpha0={alpha0}"
            optimal = dual_beta(rho, sigma, alpha0)
            for lower, upper in yielded:
                assert lower <= optimal + 1e-12 and optimal - 1e-12 <= upper, where
            lowers, uppers = zip(*yielded)
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
    # On this mixed pair Newton reaches the threshold from one side, so the
    # far end of the bracket stays put (probes above, below, then five above
    # the level); once Newton has converged, the step-length safeguard must
    # close the bracket without bisecting.  Bisecting whenever the bracket
    # has not halved over two steps takes 10 probes.
    rng = philox(2024)
    sigma, rho = random_density(2, rng), random_density(2, rng)
    probes = []
    probe = hel._threshold_probe

    def logged_probe(*args):
        probes.append(probe(*args))
        return probes[-1]

    monkeypatch.setattr(hel, "_threshold_probe", logged_probe)
    helstrom(rho, sigma, 0.1)
    assert [p.below for p in probes[:2]] == [False, True]
    assert not any(p.below for p in probes[2:-1])
    assert len(probes) <= 8


def test_crossing_guess_is_computed_only_when_newton_misses(monkeypatch):
    events = []
    probe, crossing, step = hel._threshold_probe, hel._crossing, hel._bracket_step

    def logged_probe(*args):
        events.append(("probe", probe(*args)))
        return events[-1][1]

    def logged_crossing(*args):
        events.append(("crossing",))
        return crossing(*args)

    def logged_step(lo, hi, *args):
        events.append(("step", lo, hi))
        return step(lo, hi, *args)

    monkeypatch.setattr(hel, "_threshold_probe", logged_probe)
    monkeypatch.setattr(hel, "_crossing", logged_crossing)
    monkeypatch.setattr(hel, "_bracket_step", logged_step)
    for d, kind, sigma, rho in search_cases():
        if is_rank_one(sigma):  # the secular search takes no probes
            continue
        for alpha0 in (0.05, 0.3, 0.7, 0.95):
            helstrom(rho, sigma, alpha0)
    newest, crossed = None, False
    for event in events:
        if event[0] == "probe":
            newest, crossed = event[1], False
        elif event[0] == "crossing":
            crossed = True
        elif event[1] <= newest.newton <= event[2]:
            # The guesses for this step were taken after the newest probe.
            assert not crossed, event
    names = [event[0] for event in events]
    assert names.count("crossing") < names.count("probe")


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
    # Rank-deficient sigma at d = 64: the optimal test at alpha0 = 0 is the
    # projection onto ker sigma, beta = 1 - Tr[rho Pi_ker], from one eigh of
    # sigma, or from psi with no eigh when sigma = psi psi^H.
    cases = [(kind, sigma, rho) for d, kind, sigma, rho in search_cases() if d == 64 and kind in ("low-rank", "pure/mixed")]
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
        assert calls["eigh"] == (kind == "low-rank"), kind


def test_tiny_levels_raise_instead_of_returning_a_wrong_test():
    # The worked example's sigma is pure: the secular search has no zero
    # band and finds the optimum at any level down to 1e-20.
    for alpha0 in (1e-13, 1e-16, 1e-20):
        beta_closed, _ = pure_beta_closed_form(OVERLAP_SQ, 1.0 - alpha0, 0.0)
        assert helstrom(RHO, SIGMA, alpha0).beta == pytest.approx(beta_closed, abs=1e-9), alpha0
    # On a mixed sigma, below about 1e-15 the relative zero band at
    # t ~ 2.5e7 swallows the positive eigenvalue (about 0.25) of
    # rho - t*sigma; the dual gap shows it.
    sigma = DensityMatrix(np.diag([1.0 - 1e-10, 1e-10]))
    for alpha0 in (1e-16, 1e-20):
        with pytest.raises(SandwichViolated):
            helstrom(RHO, sigma, alpha0)


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
            assert _dual_margin(sigma, rho, p_a, p_b) == pytest.approx(margin, abs=1e-12), where
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
            # One eigh of rho; none at level 0, whose test is 1 - psi psi^H.
            assert calls == {"eigh": int(alpha0 > 0.0), "eigvalsh": 0}, f"d={d} {kind} alpha0={alpha0}"
        for p_a, p_b in ((1.0, 0.0), (1.0, 0.2), (0.8, 0.2), (0.9, 0.05), (0.7, 0.1)):
            calls.update(eigh=0, eigvalsh=0)
            certify_condition(sigma, rho, p_a, p_b)
            # Both levels share the one eigh of rho.
            assert calls == {"eigh": int(p_b > 0.0), "eigvalsh": 0}, f"d={d} {kind} pA={p_a} pB={p_b}"


def test_secular_sums_stay_finite_at_the_ends():
    # Runs under filterwarnings = error::RuntimeWarning, so an overflow or a
    # 0/0 in the secular sums fails here.
    for d, kind, sigma, rho, _ in pure_edge_cases():
        route = hel._Route(sigma)
        pencil = route.pencil(rho)
        for s in (-math.inf, math.log(hel.Y_MIN), -20.0, 0.0, 20.0, math.log(hel.Y_MAX)):
            for level in (1e-300, 1e-20, 0.3, 1.0 - 1e-16):
                point = hel._secular_point(pencil, s, level)
                values = (point.t, point.alpha, point.slope, point.beta, point.dual)
                assert all(math.isfinite(v) for v in values), f"d={d} {kind} s={s} {values}"
                assert 0.0 <= point.alpha <= pencil.s0 + 1e-12 and point.slope <= 0.0, f"d={d} {kind} s={s}"
    # Past Y_MAX the threshold exceeds 2^100, as in the probe search.
    with pytest.raises(SandwichViolated):
        helstrom(RHO, SIGMA, 1e-300)
    assert helstrom(RHO, SIGMA, 1.0 - 1e-16).beta <= 1e-12


# ---------------------------------------------------------------------------
# signed projections


def test_t_zero_has_no_negative_part(rng):
    proj = signed_projections(random_density(3, rng), random_density(3, rng), 0.0)
    assert np.allclose(proj.p_minus, 0.0, atol=1e-12)


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
    with pytest.raises(NegativeT):
        signed_projections(SIGMA, RHO, -0.1)
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


def test_error_probabilities_rejects_bad_operator():
    with pytest.raises(InvalidTestOperator):
        error_probabilities(np.eye(2) * 1.5, SIGMA, RHO)
    with pytest.raises(InvalidTestOperator):
        error_probabilities(np.array([[0.5, 0.4], [0.0, 0.5]]), SIGMA, RHO)


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
        full = _dual_margin(sigma, rho, p_a, p_b)
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
        # eigh per verdict; see test_pure_sigma_takes_one_eigh).
        sigma, rho = random_density(2, rng), random_density(2, rng)
        for p_a in np.linspace(0.52, 0.98, 20):
            certify_condition(sigma, rho, float(p_a), 1.0 - float(p_a))
            verdicts += 1
    # 2.54 here.
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
                    assert _dual_margin(sigma, rho, 1.0, p_b) == pytest.approx(margin, abs=1e-12), where
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

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhtcert import (
    bound_report,
    helstrom,
    probability_gap_factor,
    pure_beta_closed_form,
    radius_depol_dp,
    radius_depol_hoelder,
    radius_depol_qht,
    radius_hoelder,
    radius_qht_pure,
    radius_qht_pure_mixed,
    smoothing_covers_everything,
)
from qhtcert.bounds import _depol_case_thresholds
from qhtcert.errors import InvalidProbabilityOrder, OutOfRegime
from qhtcert.states import PureState

from conftest import _smoothed_boundary_generic, philox, random_pure


# ---------------------------------------------------------------------------
# pure-state radius


def test_gap_factor_is_bhattacharyya_like():
    # The nested expression collapses to sqrt(pA pB) + sqrt((1-pA)(1-pB)).
    for p_a, p_b in ((0.9, 0.1), (0.7, 0.25), (0.99, 0.0)):
        direct = math.sqrt(p_a * p_b) + math.sqrt((1 - p_a) * (1 - p_b))
        assert probability_gap_factor(p_a, p_b) == pytest.approx(direct, abs=1e-12)


def test_radius_qht_pure_values():
    assert radius_qht_pure(0.9, 0.1) == pytest.approx(0.4472135955, abs=1e-9)
    assert radius_qht_pure(1.0, 0.0) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert radius_qht_pure(0.5 + 1e-12, 0.5) == pytest.approx(0.0, abs=1e-5)


def test_radius_qht_pure_rejects_bad_order():
    with pytest.raises(InvalidProbabilityOrder):
        radius_qht_pure(0.5, 0.5)
    with pytest.raises(InvalidProbabilityOrder):
        radius_qht_pure(0.3, 0.6)


def test_radius_pure_mixed_values():
    assert radius_qht_pure_mixed(0.9, 0.1, "main") == pytest.approx(0.0472135955, abs=1e-9)
    assert radius_qht_pure_mixed(0.9, 0.1, "appendix") == pytest.approx(0.0113237011, abs=1e-9)
    assert radius_qht_pure_mixed(0.5 + 1e-12, 0.5, "main") == pytest.approx(0.0, abs=1e-5)
    # default is the conservative appendix variant
    assert radius_qht_pure_mixed(0.9, 0.1) == radius_qht_pure_mixed(0.9, 0.1, "appendix")
    with pytest.raises(ValueError):
        radius_qht_pure_mixed(0.9, 0.1, "other")


def test_radius_hoelder_values():
    assert radius_hoelder(0.9, 0.1) == pytest.approx(0.4, abs=1e-12)
    assert radius_hoelder(1.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert radius_hoelder(0.5, 0.5 - 1e-12) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# depolarization-smoothed radii


def test_radius_depol_qht_values():
    assert radius_depol_qht(0.9, 0.2) == pytest.approx(math.sqrt(0.45), abs=1e-9)
    assert radius_depol_qht(0.95, 0.5) == 1.0
    # vanishing noise recovers the unsmoothed radius
    assert radius_depol_qht(0.9, 1e-9) == pytest.approx(radius_qht_pure(0.9, 0.1), abs=1e-4)
    with pytest.raises(OutOfRegime):
        radius_depol_qht(0.5, 0.2)
    with pytest.raises(ValueError):
        radius_depol_qht(0.9, 0.0)
    with pytest.raises(OutOfRegime):
        radius_depol_qht(0.9, 0.2, 1)
    with pytest.raises(OutOfRegime):
        smoothing_covers_everything(0.9, 0.2, 1)
    # The saturation flag takes the radius's input checks.
    with pytest.raises(ValueError):
        smoothing_covers_everything(0.9, 1.5)
    with pytest.raises(OutOfRegime):
        smoothing_covers_everything(2.0, 0.2)
    with pytest.raises(OutOfRegime):
        smoothing_covers_everything(math.nan, 0.2)


@pytest.mark.parametrize("d", [2.5, math.inf, 3.0, True])
def test_smoothed_radius_takes_integer_dimensions_only(d):
    # An integer d < 2 is out of regime (above); anything else that is no
    # integer is a ValueError, not a radius.
    with pytest.raises(ValueError, match="dimension d must be an integer"):
        radius_depol_qht(0.9, 0.1, d)
    with pytest.raises(ValueError, match="dimension d must be an integer"):
        smoothing_covers_everything(0.9, 0.1, d)
    assert radius_depol_qht(0.9, 0.1, np.int64(3)) == radius_depol_qht(0.9, 0.1, 3)


def test_radius_depol_qht_continuous_across_cases():
    for p in (0.1, 0.3, 0.6):
        t1, t2 = _depol_case_thresholds(p, 2)
        for t in (t1, t2):
            below = radius_depol_qht(t - 1e-9, p)
            above = radius_depol_qht(t + 1e-9, p)
            assert below == pytest.approx(above, abs=1e-6)
        assert radius_depol_qht(t2 + 1e-9, p) == 1.0


def test_radius_depol_qht_qubit_bits_are_pinned():
    # The qubit radius and saturation flag, bit for bit, on the compare-depol
    # grids (--grid 99, the default, and --grid 100) at the default p list.
    text = "".join(
        f"{radius_depol_qht(p_a, p).hex()} {smoothing_covers_everything(p_a, p)}\n"
        for n in (99, 100)
        for p in (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)
        for p_a in (0.5 + (k + 1) * 0.5 / (n + 1) for k in range(n))
    )
    digest = "75bad1e35063ed1a479f5648827850ee2fbfa6d247494ab32b369c9c1c0dcabd"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_radius_depol_hoelder_values():
    assert radius_depol_hoelder(0.9, 0.2) == pytest.approx(0.5, abs=1e-12)
    assert radius_depol_hoelder(0.5, 0.7) == 0.0
    assert radius_depol_hoelder(0.9, 1e-9) == pytest.approx(radius_hoelder(0.9, 0.1), abs=1e-6)
    assert radius_depol_hoelder(1.0, 0.8) == 1.0


@pytest.mark.parametrize("radius", [radius_depol_hoelder, radius_depol_dp])
@pytest.mark.parametrize(
    ("p_a", "p", "error", "fragment"),
    [
        (0.9, 0.0, ValueError, r"p must lie in \(0, 1\)"),
        (0.9, 1.0, ValueError, r"p must lie in \(0, 1\)"),
        (0.4, 0.2, OutOfRegime, "requires pA >= 1/2"),
    ],
)
def test_smoothed_radii_reject_inputs_outside_their_regime(radius, p_a, p, error, fragment):
    with pytest.raises(error, match=fragment):
        radius(p_a, p)


def test_radius_depol_dp_values():
    assert radius_depol_dp(0.9, 0.2) == pytest.approx(0.25, abs=1e-12)
    assert radius_depol_dp(0.5, 0.3) == 0.0
    assert radius_depol_dp(0.9, 1e-9) == pytest.approx(0.0, abs=1e-6)
    assert radius_depol_dp(1.0, 0.2) == 1.0


def test_covers_everything_flag():
    assert smoothing_covers_everything(0.95, 0.5)
    assert not smoothing_covers_everything(0.8, 0.5)


@pytest.mark.parametrize("d", [3, 4, 8, 16])
def test_radius_depol_qht_matches_reference_search(d):
    # Regimes: the best multiplier at t = 1 (duality radius), interior, at
    # the right end, or saturated.  The pA grid reaches each of them at every
    # d; the extra points 0.94 and 0.98 catch the narrow right-end band.
    rng = philox(9100 + d)
    regimes = set()
    for p in (0.05, 0.2, 0.5, 0.8, 0.95):
        t1, t2 = _depol_case_thresholds(p, d)
        for p_a in (0.52, 0.56, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.94, 0.95, 0.98, 0.99):
            radius = radius_depol_qht(p_a, p, d)
            reference = _smoothed_boundary_generic(random_pure(d, rng).density(), p, p_a)
            assert radius == pytest.approx(reference, abs=1e-9)
            # At pA = t2 (here 0.7 = 3/2 - 0.8) the radius reaches 1, but the
            # orthogonal states sit on the boundary and are not certified.
            assert smoothing_covers_everything(p_a, p, d) == (radius == 1.0) or p_a == t2
            if p_a > t2:
                regimes.add("saturated")
            elif p_a <= 0.5 + p * (d - 2) / d:
                regimes.add("t = 1")
                assert radius == radius_depol_hoelder(p_a, p)
            else:
                regimes.add("interior" if p_a <= t1 else "right end")
    assert regimes == {"t = 1", "interior", "right end", "saturated"}


# ---------------------------------------------------------------------------
# closed-form type-II errors


def test_pure_beta_values():
    beta_a, _ = pure_beta_closed_form(0.75, 0.9, 0.1)
    assert beta_a == pytest.approx(0.4401923789, abs=1e-9)
    boundary, _ = pure_beta_closed_form(0.8, 0.9, 0.1)
    assert boundary == pytest.approx(0.5, abs=1e-12)


def test_pure_beta_regime_checks():
    with pytest.raises(OutOfRegime):
        pure_beta_closed_form(0.05, 0.9, 0.1)
    with pytest.raises(ValueError):
        pure_beta_closed_form(1.0, 0.9, 0.1)


def test_pure_beta_matches_generic_path():
    g2 = 0.75
    theta = 2.0 * math.acos(math.sqrt(g2))
    sigma = PureState([1.0, 0.0]).density()
    rho = PureState.bloch(theta, 0.4).density()
    beta_a, beta_b = pure_beta_closed_form(g2, 0.9, 0.1)
    assert helstrom(rho, sigma, 0.1).beta == pytest.approx(beta_a, abs=1e-8)
    assert helstrom(rho, sigma, 0.1).beta + helstrom(rho, sigma, 0.1).beta == pytest.approx(
        beta_a + beta_b, abs=1e-8
    )


# ---------------------------------------------------------------------------
# orderings and monotonicity


@given(
    p_a=st.floats(0.01, 0.999),
    p_b=st.floats(0.0, 0.99),
)
@settings(max_examples=200, deadline=None)
def test_radius_ordering(p_a, p_b):
    if not p_b < p_a:
        return
    r1 = radius_qht_pure(p_a, p_b)
    rh = radius_hoelder(p_a, p_b)
    r2m = radius_qht_pure_mixed(p_a, p_b, "main")
    r2a = radius_qht_pure_mixed(p_a, p_b, "appendix")
    assert 0.0 <= r2a <= r2m + 1e-12
    assert r2m <= rh + 1e-12
    assert rh <= r1 + 1e-12
    assert r1 <= math.sqrt(0.5) + 1e-12


@given(p=st.floats(0.01, 0.99), p_a=st.floats(0.501, 0.999))
@settings(max_examples=200, deadline=None)
def test_smoothed_radius_ordering(p, p_a):
    rq = radius_depol_qht(p_a, p)
    assert rq >= radius_depol_hoelder(p_a, p) - 1e-12
    assert rq >= radius_depol_dp(p_a, p) - 1e-12


def test_radii_monotone_in_pa():
    grid = np.linspace(0.51, 0.999, 80)
    for fn in (
        lambda pa: radius_qht_pure(pa, 0.2) if pa > 0.2 else 0.0,
        lambda pa: radius_hoelder(pa, 0.2) if pa > 0.2 else 0.0,
        lambda pa: radius_depol_qht(pa, 0.3),
        lambda pa: radius_depol_hoelder(pa, 0.3),
        lambda pa: radius_depol_dp(pa, 0.3),
    ):
        values = [fn(pa) for pa in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# report assembly


def test_bound_report_unsmoothed():
    rep = bound_report(0.9, 0.1)
    assert rep.r_qht_pure == pytest.approx(0.4472135955, abs=1e-9)
    assert rep.r_depol_qht is None and rep.r_depol_dp is None


def test_bound_report_smoothed():
    rep = bound_report(0.9, 0.1, p=0.2)
    assert rep.r_depol_qht == pytest.approx(math.sqrt(0.45), abs=1e-9)
    assert rep.r_depol_hoelder == pytest.approx(0.5, abs=1e-12)
    assert rep.r_depol_dp == pytest.approx(0.25, abs=1e-12)


def test_bound_report_mixed_benign_keeps_only_hoelder():
    rep = bound_report(0.9, 0.1, benign_pure=False)
    assert rep.r_qht_pure is None
    assert rep.r_hoelder == pytest.approx(0.4, abs=1e-12)


def test_bound_report_keeps_the_smoothed_duality_radius_of_a_mixed_benign_state():
    rep = bound_report(0.9, 0.1, 0.2, benign_pure=False)
    assert rep.r_depol_hoelder == radius_depol_hoelder(0.9, 0.2)
    assert rep.r_depol_qht is None and rep.r_depol_dp is None


def test_bound_report_skips_depol_when_pb_not_complementary():
    rep = bound_report(0.9, 0.05, p=0.2)
    assert rep.r_depol_qht is None
    # The one rounding rule of the robustness condition: 1e-13 is too far.
    assert bound_report(0.9, 0.1 + 1e-13, p=0.2).r_depol_qht is None

"""Closed-form certified radii in trace distance.

Given a lower bound p_a on the top-class probability and an upper bound p_b
on the runner-up (both measured on the benign input), these functions return
radii r such that every adversarial state within trace distance r of the
benign state keeps the predicted class:

* ``radius_qht_pure``        pure benign / pure adversarial, exact (necessary
                             and sufficient when p_a + p_b = 1),
* ``radius_qht_pure_mixed``  pure benign / mixed adversarial, sufficient only,
* ``radius_hoelder``         arbitrary states, from trace-norm duality,
* ``radius_depol_*``         pure states behind a depolarizing smoothing
                             channel with parameter p (assumes p_b = 1 - p_a);
                             radii are distances between the *unsmoothed*
                             states.  ``radius_depol_qht`` and
                             ``radius_depol_hoelder`` hold at every dimension
                             d, ``radius_depol_dp`` for qubits only.

All radii are reported in trace distance normalized to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidProbabilityOrder, OutOfRegime, _check_count


def _check_order(p_a: float, p_b: float) -> None:
    if not (0.0 <= p_b < p_a <= 1.0):
        raise InvalidProbabilityOrder(f"need 0 <= pB < pA <= 1, got pA={p_a}, pB={p_b}")


def _complementary(p_a: float, p_b: float) -> bool:
    """Whether p_b = 1 - p_a up to rounding, as for typed pairs such as (0.8, 0.2)."""
    return abs(p_b - (1.0 - p_a)) <= 1e-15


def probability_gap_factor(p_a: float, p_b: float) -> float:
    """f(pA, pB) = sqrt(1 - pB - pA(1-2pB) + 2 sqrt(pA pB (1-pA)(1-pB)))."""
    inner = 1.0 - p_b - p_a * (1.0 - 2.0 * p_b) + 2.0 * math.sqrt(
        max(p_a * p_b * (1.0 - p_a) * (1.0 - p_b), 0.0)
    )
    return math.sqrt(max(inner, 0.0))


def radius_qht_pure(p_a: float, p_b: float) -> float:
    """Exact robust radius sqrt((1 - f(pA, pB)) / 2) for pure state pairs."""
    _check_order(p_a, p_b)
    return math.sqrt(max(1.0 - probability_gap_factor(p_a, p_b), 0.0) / 2.0)


def radius_qht_pure_mixed(p_a: float, p_b: float, variant: str = "appendix") -> float:
    """Sufficient radius for a pure benign state and a mixed adversarial state.

    Two published forms of the convex-hull argument circulate; with
    delta = radius_qht_pure(pA, pB):

    * ``"main"``:     delta * (1 - sqrt(1 - delta^2))
    * ``"appendix"``: delta * (1 - sqrt(1 - delta^2 / 4))

    The default is the smaller ``"appendix"`` value, which is the one the
    printed derivation supports; certification must never overclaim.
    """
    _check_order(p_a, p_b)
    delta = radius_qht_pure(p_a, p_b)
    if variant == "main":
        return delta * (1.0 - math.sqrt(max(1.0 - delta**2, 0.0)))
    if variant == "appendix":
        return delta * (1.0 - math.sqrt(max(1.0 - delta**2 / 4.0, 0.0)))
    raise ValueError(f"unknown variant {variant!r}, expected 'main' or 'appendix'")


def radius_hoelder(p_a: float, p_b: float) -> float:
    """Trace-norm duality radius (pA - pB) / 2, valid for arbitrary states."""
    _check_order(p_a, p_b)
    return (p_a - p_b) / 2.0


def _depol_case_thresholds(p: float, d: int) -> tuple[float, float]:
    """The pA thresholds (t1, t2) of ``radius_depol_qht`` at dimension d: the
    qubit expressions plus terms in shift = p/2 - p/d, exactly 0.0 at d = 2."""
    _check_count(d, -math.inf, "dimension d must be an integer, got {}")
    if d < 2:
        raise OutOfRegime(f"requires dimension d >= 2, got {d}")
    shift = p / 2.0 - p / d
    t1 = (4.0 - 6.0 * p + 3.0 * p**2 + 4.0 * shift * (1.0 - 3.0 * shift)) / (
        4.0 - 4.0 * p + 2.0 * p**2 - 8.0 * shift**2
    )
    t2 = min((4.0 - 3.0 * p - 2.0 * shift) / (4.0 - 2.0 * p - 4.0 * shift), 1.5 - p)
    return t1, t2


def radius_depol_qht(p_a: float, p: float, d: int = 2) -> float:
    """Exact robust radius for depolarization-smoothed pure states of dimension d.

    Outside span{psi, phi} both smoothed states equal (p/d) * 1, so at
    multipliers t >= 1 the dual t (1 - pA) + Tr[(rho - t sigma)_+] sees only
    the 2-plane (smaller t never certify more).  At t the largest certified
    trace distance s_t has s_t^2 = k (k + t - 1) / t with
    k = (1/2 - t (1 - pA) + (p/d) (t - 1)) / (1 - p), and the radius is the
    largest s_t over t in [1, 1 / (2 (1 - pA))].  Four regimes in p_a (with
    p_b = 1 - p_a): t = 1, the duality radius, up to 1/2 + p (d-2)/d (empty
    at d = 2); an interior t up to t1; the right end up to t2; radius 1 above.
    Each regime is the qubit expression plus terms that vanish at d = 2.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("smoothing parameter p must lie in (0, 1)")
    if not 0.5 < p_a <= 1.0:
        raise OutOfRegime(f"requires pA > 1/2, got {p_a}")
    t1, t2 = _depol_case_thresholds(p, d)
    shift = p / 2.0 - p / d
    if p_a > t2:
        return 1.0
    if p_a <= 0.5 + 2.0 * shift:
        return radius_depol_hoelder(p_a, p)
    if p_a <= t1:
        g = 0.5 * (2.0 * p_a * (1.0 - p_a) - p * (1.0 - p / 2.0))
        g = (g + shift * (2.0 * p_a - 1.0 - shift)) * (1.0 - (2.0 * shift / (1.0 - p)) ** 2)
        lift = shift * (2.0 * p_a - 1.0 - 2.0 * shift) / (1.0 - p) ** 2
        return math.sqrt(max(0.5 + lift - math.sqrt(max(g, 0.0)) / (1.0 - p), 0.0))
    num = (p * (2.0 - p) - 4.0 * shift * (1.0 - shift)) * (1.0 - 2.0 * p_a) ** 2
    den = 8.0 * (1.0 - p) ** 2 * (1.0 - p_a)
    return min(math.sqrt(num / den), 1.0)


def radius_depol_hoelder(p_a: float, p: float) -> float:
    """Duality radius under smoothing, (2 pA - 1) / (2 (1-p)), capped at 1."""
    if not 0.0 < p < 1.0:
        raise ValueError("smoothing parameter p must lie in (0, 1)")
    if not 0.5 <= p_a <= 1.0:
        raise OutOfRegime(f"requires pA >= 1/2, got {p_a}")
    return min((2.0 * p_a - 1.0) / (2.0 * (1.0 - p)), 1.0)


def radius_depol_dp(p_a: float, p: float) -> float:
    """Differential-privacy style radius (p / (2 (1-p))) (sqrt(pA/(1-pA)) - 1),
    capped at 1."""
    if not 0.0 < p < 1.0:
        raise ValueError("smoothing parameter p must lie in (0, 1)")
    if not 0.5 <= p_a <= 1.0:
        raise OutOfRegime(f"requires pA >= 1/2, got {p_a}")
    if p_a >= 1.0:
        return 1.0
    return min((p / (2.0 * (1.0 - p))) * (math.sqrt(p_a / (1.0 - p_a)) - 1.0), 1.0)


def _depol_radii(p_a: float, p: float, d: int, pure: bool) -> tuple[float | None, float, float | None]:
    """The smoothed radii (qht, hoelder, dp) that hold at dimension d: the QHT
    radius needs a pure benign state, the DP radius a pure qubit, and the
    duality radius always holds."""
    r_qht = radius_depol_qht(p_a, p, d) if pure else None
    r_dp = radius_depol_dp(p_a, p) if pure and d == 2 else None
    return r_qht, radius_depol_hoelder(p_a, p), r_dp


def smoothing_covers_everything(p_a: float, p: float, d: int = 2) -> bool:
    """True when the smoothed radius at dimension d saturates at 1 and every
    state is certified: pA > t2.  At pA = t2 the radius is 1, but the
    orthogonal states sit on the boundary.  Raises as ``radius_depol_qht``."""
    return radius_depol_qht(p_a, p, d) == 1.0 and bool(p_a > _depol_case_thresholds(p, d)[1])


def pure_beta_closed_form(overlap_sq: float, p_a: float, p_b: float) -> tuple[float, float]:
    """Minimal type-II errors for a pure state pair with squared overlap
    |gamma|^2, at type-I error levels 1-pA and pB.

    Valid only when max(pB, 1-pA) < |gamma|^2; outside that regime the optimal
    tests discriminate perfectly and both betas vanish.
    """
    if not 0.0 <= overlap_sq < 1.0:
        raise ValueError("overlap_sq must lie in [0, 1)")
    _check_order(p_a, p_b)
    if overlap_sq <= max(p_b, 1.0 - p_a):
        raise OutOfRegime(
            f"requires max(pB, 1-pA) < |gamma|^2, got |gamma|^2={overlap_sq}"
        )
    cross = math.sqrt(overlap_sq * (1.0 - overlap_sq))

    if p_a >= 1.0:
        beta_a = overlap_sq
    else:
        beta_a = overlap_sq * (2.0 * p_a - 1.0) + (1.0 - p_a) * (
            1.0 - 2.0 * p_a * cross / math.sqrt(p_a * (1.0 - p_a))
        )
    if p_b <= 0.0:
        beta_b = overlap_sq
    else:
        beta_b = overlap_sq * (1.0 - 2.0 * p_b) + p_b * (
            1.0 - 2.0 * (1.0 - p_b) * cross / math.sqrt(p_b * (1.0 - p_b))
        )
    return beta_a, beta_b


@dataclass(frozen=True)
class BoundReport:
    """All radii applicable to one (pA, pB, p) operating point.

    Radii that do not apply (e.g. smoothed radii when p = 0, pure-state radii
    for a mixed benign input) are None.
    """

    p_a: float
    p_b: float
    p: float = 0.0
    r_qht_pure: float | None = None
    r_qht_pure_mixed_main: float | None = None
    r_qht_pure_mixed_appendix: float | None = None
    r_hoelder: float | None = None
    r_depol_qht: float | None = None
    r_depol_hoelder: float | None = None
    r_depol_dp: float | None = None


def bound_report(p_a: float, p_b: float, p: float = 0.0, *, benign_pure: bool = True) -> BoundReport:
    """Assemble every radius that applies to the given operating point.

    p = 0 means no smoothing; p outside [0, 1) raises ValueError.  The
    smoothed radii assume p_b = 1 - p_a and are filled in only when that holds
    up to rounding (``_complementary``), p > 0 and pA > 1/2, each where it
    applies to a qubit (``_depol_radii``): the duality radius for any benign
    state, the QHT and DP radii for a pure one.
    """
    _check_order(p_a, p_b)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"smoothing parameter p must lie in [0, 1), got {p}")
    r_pure = r_mixed_main = r_mixed_app = None
    if benign_pure:
        r_pure = radius_qht_pure(p_a, p_b)
        r_mixed_main = radius_qht_pure_mixed(p_a, p_b, "main")
        r_mixed_app = radius_qht_pure_mixed(p_a, p_b, "appendix")
    r_depol_q = r_depol_h = r_depol_d = None
    if p > 0.0 and _complementary(p_a, p_b) and p_a > 0.5:
        r_depol_q, r_depol_h, r_depol_d = _depol_radii(p_a, p, 2, benign_pure)
    return BoundReport(
        p_a=p_a,
        p_b=p_b,
        p=p,
        r_qht_pure=r_pure,
        r_qht_pure_mixed_main=r_mixed_main,
        r_qht_pure_mixed_appendix=r_mixed_app,
        r_hoelder=radius_hoelder(p_a, p_b),
        r_depol_qht=r_depol_q,
        r_depol_hoelder=r_depol_h,
        r_depol_dp=r_depol_d,
    )

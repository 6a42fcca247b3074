"""Optimal binary quantum hypothesis tests with a preassigned type-I error.

The null hypothesis is the benign state sigma, the alternative the adversarial
state rho.  A test is an operator 0 <= M <= 1 with error rates

    alpha(M) = Tr[sigma M]        (reject the null although it is true)
    beta(M)  = Tr[rho (1 - M)]    (accept the null although rho is true)

The minimizer of beta at fixed alpha is built from the projections P_plus(t)
onto the positive eigenspace of rho - t*sigma.  t -> alpha(P_plus(t)) is
non-increasing and right-continuous; the optimal test mixes the plus
projections at the threshold t where it drops to the requested level so that
it attains the level exactly, and its beta is checked against the Lagrange
dual bound, which proves it optimal.  The level search (``_tau_search``)
takes one of four routes, each described where it is computed: level 0
(``_Route.kernel``), a qubit pair (``qubit._Qubit.search``), a pure sigma
(``_secular_search``) and a mixed sigma (``_probe_search``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bounds import _check_order, _complementary
from .errors import DimMismatch, InvalidTestOperator, NegativeT, SandwichViolated
from .qubit import _Qubit
from .states import TOL, DensityMatrix, _rank_one_factor, hermitian_residual

# Eigenvalue floor.  An eigenvalue w of rho - t*sigma counts as zero when
# |w| <= EIG_FLOOR * (1 + t); 1 + t bounds ||rho - t*sigma||_op for density
# matrices.  The eigenvalues of sigma up to EIG_FLOOR span its kernel, and
# those of rho up to it are set to 0 (``_Pencil``).
EIG_FLOOR = 1e-13

# Relative bracket width at which the search for t stops.
T_TOL = 1e-12

# Largest excess of a constructed test's beta over the dual lower bound.
GAP_TOL = 1e-9

# Largest threshold the level searches reach: the probe search's doubling
# stops past it, the qubit route takes candidates beyond it at T_MAX, and
# the secular search brackets y, the negative eigenvalue -y of rho -
# t*psi psi^H, in [Y_MIN, Y_MAX], since t >= y / |psi|^2.  A root below
# Y_MIN, where the weights on ker rho are roundoff-sized, closes the
# bracket at Y_MIN.
T_MAX = Y_MAX = 2.0**100
Y_MIN = 1e-60


@dataclass(frozen=True, eq=False)
class SignedProjections:
    """Operators p_plus + p_zero + p_minus = 1 from the spectrum of rho - t*sigma.

    From ``signed_projections`` they are the orthogonal projections onto the
    positive, zero and negative eigenspaces.  In a ``HelstromTest`` they come
    from the threshold search's bracket ends (see ``helstrom``), and p_zero is
    then in general not a projector.
    """

    t: float
    p_plus: np.ndarray
    p_zero: np.ndarray
    p_minus: np.ndarray


class _Probe(NamedTuple):
    """One probe of the threshold search at t (``_threshold_probe``), or a
    bracket end of the qubit route (``qubit._Qubit.tests``), whose v is the
    2x2 eigenbasis as nested tuples: only ``plus`` reads v, and a verdict
    never calls it, while building the array would cost about 8% of a
    qubit condition."""

    t: float
    alpha: float
    beta: float
    slope: float
    plus_trace: float
    w: np.ndarray
    v: np.ndarray
    rate: np.ndarray
    k: int

    def plus(self) -> np.ndarray:
        """P_plus(t), the span of the eigenvectors above EIG_FLOOR * (1 + t)."""
        return _span(np.asarray(self.v, dtype=complex)[:, self.k:])


@dataclass(frozen=True, eq=False)
class HelstromTest:
    """An optimal test M = p_plus + q0 * p_zero attaining alpha = alpha0 (see
    ``helstrom``).  Where alpha is smooth at t, the bracket ends rotate with
    the search, so q0 (by up to 1) and the split into p_plus and p_zero are
    not stable outputs; m, alpha, beta and t (to T_TOL) are.  On a jump of
    alpha each route states how far t is resolved; beta is stable there."""

    m: np.ndarray
    t: float
    q0: float
    alpha: float
    beta: float
    projections: SignedProjections


def _span(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of orthonormal columns."""
    return cols @ cols.conj().T


def signed_projections(rho: DensityMatrix, sigma: DensityMatrix, t: float) -> SignedProjections:
    """Classify the spectrum of rho - t*sigma into +/0/- eigenspaces (``_Route.probe``).

    Eigenvalues with |lambda| <= EIG_FLOOR * (1 + t) form the zero space.
    """
    if not 0.0 <= t < math.inf:
        raise NegativeT(f"t must be finite and non-negative, got {t}")
    probe = _Route(rho, sigma).probe(t)
    plus = probe.plus()
    minus = _span(probe.v[:, probe.w < -EIG_FLOOR * (1.0 + t)])
    zero = np.eye(len(probe.w)) - plus - minus
    return SignedProjections(t=float(t), p_plus=plus, p_zero=zero, p_minus=minus)


def error_probabilities(m, sigma: DensityMatrix, rho: DensityMatrix):
    """(alpha, beta) of the test operator M against null sigma / alternative rho."""
    mat = np.asarray(m, dtype=np.complex128)
    if mat.shape != (sigma.dim, sigma.dim) or rho.dim != sigma.dim:
        raise DimMismatch("test operator and states must share one dimension")
    res = hermitian_residual(mat)
    if res > TOL:
        raise InvalidTestOperator("test operator is not Hermitian", residual=res)
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    if w[0] < -TOL or w[-1] > 1.0 + TOL:
        raise InvalidTestOperator(
            "test operator eigenvalues outside [0, 1]",
            residual=float(max(-w[0], w[-1] - 1.0)),
        )
    alpha = float(np.clip(np.real(np.trace(sigma.matrix @ mat)), 0.0, 1.0))
    beta = float(np.clip(1.0 - np.real(np.trace(rho.matrix @ mat)), 0.0, 1.0))
    return alpha, beta


def _threshold_probe(rho: DensityMatrix, sigma: DensityMatrix, t: float):
    """One eigh of rho - t*sigma and all that no level enters: alpha and beta
    of the test P_plus(t), the slope of alpha, Tr[(rho - t*sigma)_+], the
    rates S_kk, the eigenpairs and the plus-set start.

    With S = V^H sigma V in the eigenbasis of rho - t*sigma, alpha(P_plus) is
    the sum of S_kk over the plus set, each eigenvalue moves at
    d(lambda_k)/dt = -S_kk (Hellmann-Feynman), and first-order perturbation
    theory gives the slope alpha'(t) = -2 sum_{i in +, j not in +}
    |S_ij|^2 / (lambda_i - lambda_j).  The search's guess from the probe,
    ``_first_passage``, moves alpha at that slope and each eigenvalue at its
    rate.

    beta(P_plus) = 1 - Tr[(rho - t*sigma) P_plus] - t * alpha(P_plus), and the
    Lagrange dual g(t) = 1 - t * level - Tr[(rho - t*sigma)_+] bounds the beta
    of every test with alpha <= level from below (weak duality).
    """
    w, v = np.linalg.eigh(rho.matrix - t * sigma.matrix)
    k = int(np.searchsorted(w, EIG_FLOOR * (1.0 + t), side="right"))  # P_plus(t) spans the eigenvectors of w[k:]
    s = v.conj().T @ sigma.matrix @ v
    rate = s.diagonal().real
    # ndarray.sum is the reduction np.sum calls, without its dispatch.
    alpha = float(rate[k:].sum())
    beta = 1.0 - float(w[k:].sum()) - t * alpha
    gap = w[k:, None] - w[None, :k]
    slope = -2.0 * float((np.abs(s[k:, :k]) ** 2 / gap).sum())
    return _Probe(t, alpha, beta, slope, float(w[w > 0.0].sum()), w, v, rate, k)


def _first_passage(probe: _Probe, level: float) -> float:
    """The probe's guess for the threshold, or NaN: the first point where
    alpha's first-order model passes the level.  The model moves at the
    probe's slope and jumps by S_kk where an eigenvalue, moving at its rate,
    crosses thr = EIG_FLOOR * (1 + t): below the level, to the left, one
    outside P_plus rises through thr and adds its weight; above it, to the
    right, one in P_plus falls through thr and takes it away.  Taken in
    order away from the probe, the first crossing whose jump passes the
    level is the guess, unless the smooth piece before it (or past the last
    crossing) passes first, at its Newton point."""
    below = probe.alpha <= level
    sign, side = (1.0, slice(None, probe.k)) if below else (-1.0, slice(probe.k, None))
    thr = EIG_FLOOR * (1.0 + probe.t)
    # Python floats: most calls end at the first crossing, so numpy's per-call overhead would dominate.
    pairs = zip(probe.w[side].tolist(), probe.rate[side].tolist())
    crossings = sorted(((probe.t + (w - thr) / rate, rate) for w, rate in pairs if rate > 0.0), reverse=below)
    alpha = probe.alpha  # the model's alpha at t, shifted by the jumps so far
    for t, rate in crossings:
        if (alpha + probe.slope * (t - probe.t) > level) == below:
            break
        alpha += sign * rate
        if (alpha + probe.slope * (t - probe.t) > level) == below:
            return t
    return probe.t - (alpha - level) / probe.slope if probe.slope < 0.0 else math.nan


def _unit_probe(rho: DensityMatrix, sigma: DensityMatrix) -> _Probe | None:
    """The t = 0 probe of a positive definite rho, with no eigh, else None:
    a Cholesky factor of rho - 2 * EIG_FLOOR * 1 puts every eigenvalue of rho
    above EIG_FLOOR, so P_plus(0) = 1, the test 1 in the identity basis
    (w = diag(rho)) with alpha = Tr sigma and beta = g(0) = 1 - Tr rho.  Its
    slope and rates are 0, so it offers no guess and no dual step."""
    try:
        np.linalg.cholesky(rho.matrix - 2.0 * EIG_FLOOR * np.eye(rho.dim))
    except np.linalg.LinAlgError:
        return None
    w = rho.matrix.diagonal().real
    alpha, trace = float(sigma.matrix.diagonal().real.sum()), float(w.sum())
    return _Probe(0.0, alpha, 1.0 - trace, 0.0, trace, w, np.eye(w.size, dtype=complex), 0.0 * w, 0)


def _bracket_step(
    lo: float, hi: float, guess: float | None, half_tol: float, newest: float, lengths: list[float]
) -> float:
    """Next probe inside the bracket (lo, hi), for a bracket that holds a
    float strictly between its ends.

    Takes the guess clamped at least half_tol inside the bracket, so that a
    converged guess closes it, and the midpoint when there is no guess or when
    the clamped guess would move farther from the newest point than half the
    step taken two steps earlier (the step-length safeguard of Brent's
    zeroin).  lengths holds the lengths of the last two steps and is updated
    in place.
    """
    t = math.nan if guess is None else min(max(guess, lo + half_tol), hi - half_tol)
    if not (lo < t < hi and abs(t - newest) <= 0.5 * lengths[0]):
        t = 0.5 * (lo + hi)
    lengths[:] = [lengths[1], abs(t - newest)]
    return t


class _Pencil:
    """One eigh of rho = V diag(lam) V^H and c = V^H psi, shared by the
    secular searches of a call (``_Route.pencil``).  Eigenvalues up to
    EIG_FLOOR are set to 0, so that ker rho is exact and u is orthogonal to
    N = ker rho & psi^perp; that moves rho by ``slack`` in trace norm.
    slack_t = sqrt(d) * residual, residual = ||sigma - psi psi^H||_F, bounds
    the trace norm of sigma - psi psi^H, so the dual of (rho, psi psi^H) at t
    exceeds that of (rho, sigma) by at most t * slack_t."""

    def __init__(self, rho: DensityMatrix, psi: np.ndarray, residual: float):
        lam, self.v = np.linalg.eigh(rho.matrix)
        self.zero = lam <= EIG_FLOOR
        self.slack, self.slack_t = float(np.abs(lam[self.zero]).sum()), math.sqrt(psi.size) * residual
        lam = np.where(self.zero, 0.0, lam)
        self.c = (psi.conj() @ self.v).conj()
        w = self.c.real**2 + self.c.imag**2
        self.w_ker, self.s0 = float(w[self.zero].sum()), float(w.sum())
        self.trace, self.spread = float(lam.sum()), float(w @ (lam - float(w @ lam) / self.s0) ** 2)
        # Python floats: the secular point's O(d) loops run without numpy's per-call overhead.
        self.lam, self.w, self.ker = lam.tolist(), w.tolist(), self.zero.tolist()

    @cached_property
    def keep(self) -> np.ndarray:
        """1 - Pi_N, from the smaller of ker rho and its range."""
        kc = self.v[:, self.zero] @ self.c[self.zero]
        psi_ker = np.outer(kc, kc.conj()) / self.w_ker if self.w_ker > 0.0 else 0.0
        if 2 * int(self.zero.sum()) > self.zero.size:
            return _span(self.v[:, ~self.zero]) + psi_ker
        return np.eye(self.zero.size) - _span(self.v[:, self.zero]) + psi_ker


class _Route:
    """One call's pair (rho, sigma) and all of its work that no level enters;
    the call's level searches only read from it.  It checks the dimensions and
    picks the route of ``_tau_search`` without an eigh of sigma: ``qubit`` for
    a 2x2 pair, else ``pencil`` (found on first read) for a pure sigma."""

    def __init__(self, rho: DensityMatrix, sigma: DensityMatrix):
        if rho.dim != sigma.dim:
            raise DimMismatch(f"dimensions differ: {rho.dim} vs {sigma.dim}")
        self.rho, self.sigma = rho, sigma
        self.qubit = _Qubit(rho, sigma, EIG_FLOOR, T_MAX) if rho.dim == 2 else None
        self._newest = None

    def kernel(self) -> tuple[np.ndarray, float]:
        """(Pi_ker, allowance): the projection onto ker sigma, the optimal test
        at level 0, and how far its beta b0 = 1 - Tr[rho Pi_ker] may lie above
        that of the eigh's kernel, which the level-0 search's lower bound gives
        up.  Level 0 has no threshold: the dual g(t) = 1 - Tr[(rho - t*sigma)_+]
        does not decrease in t, and its limit is b0.  sigma's eigh gives the
        span of the eigenvectors with eigenvalues up to EIG_FLOOR, allowance 0:
        roundoff can only add near-kernel vectors to it, which only lower b0,
        so as a lower bound b0 never overclaims, and as an upper bound it can
        only stop a search at "not certified".  A qubit pair takes the same
        rule in closed form, allowance 32u (1 + |tau_r|), u = 2^-53."""
        if self.qubit is not None:
            (top, low), u = self.qubit.spectrum
            p = np.outer(u, np.conj(u))
            kernel = (top <= EIG_FLOOR) * p + (low <= EIG_FLOOR) * (np.eye(2, dtype=complex) - p)
            return kernel, 32.0 * 2.0**-53 * (1.0 + abs(self.qubit.tau_r))
        w, v = np.linalg.eigh(self.sigma.matrix)
        return _span(v[:, w <= EIG_FLOOR]), 0.0

    @cached_property
    def pencil(self) -> _Pencil | None:
        """The pure-sigma route: the pencil of sigma's factor by the purity rule
        ``states._rank_one_factor`` (no eigh of sigma), or None if mixed."""
        factor = _rank_one_factor(self.sigma)
        return None if factor is None else _Pencil(self.rho, *factor)

    def probe(self, t: float) -> _Probe:
        """The threshold probe at t: the newest one if taken at t (the levels
        of a condition step in lockstep in ``_condition_margin`` and double t
        alike, so it catches every repeat of their common doubling), else a
        new one, with no eigh at t = 0 for a positive definite rho
        (``_unit_probe``)."""
        if self._newest is None or self._newest.t != t:
            unit = _unit_probe(self.rho, self.sigma) if t == 0.0 else None
            self._newest = unit or _threshold_probe(self.rho, self.sigma, t)
        return self._newest


class _Root(NamedTuple):
    """One point of the secular search; see ``_secular_point``."""

    t: float
    s: float
    alpha: float
    slope: float
    beta: float
    dual: float
    r: list[float]
    r2: float
    pencil: _Pencil

    def plus(self) -> np.ndarray:
        """P_plus(t) = 1 - Pi_N - u u^H, u the unit eigenvector of the eigenvalue -y."""
        p = self.pencil
        u = p.v @ (p.c * (np.array(self.r) / math.sqrt(self.r2)))
        return p.keep - np.outer(u, u.conj())


def _secular_point(p: _Pencil, s: float, level: float) -> _Root:
    """The point of the secular search where rho - t*psi psi^H has the
    eigenvalue -y, y = exp(s): t, alpha and beta of P_plus(t), the dual g(t)
    and d alpha / ds, in O(d) float loops and free of cancellation.

    With r = y / (lam + y) and b = lam / (lam + y) (r + b = 1, each to full
    relative precision), w = |c|^2, R1 = sum w r = y S_1, R2 = sum w r^2 =
    y^2 S_2, B = sum w b and U = sum w r b:

        t = y / R1,  alpha = |psi|^2 - S_1^2/S_2 = sum w (r B - b R1)^2 / (|psi|^2 R2),
        beta = 1 - Tr rho + sum w lam r^2 / R2,  g(t) = 1 - Tr rho + t (B - level),
        d alpha / ds = -2 sum w r ((r U - b R2) / R2)^2.

    They avoid 1 - S_1^2/S_2 and t - y, which lose every digit at tiny
    levels, and stay finite as y -> 0 and y -> inf.  s = -inf is the limit
    y -> 0, the largest t with rho - t*sigma >= 0: r is the indicator of
    ker rho and t = 0 when psi has weight there, else r = 1/lam (alpha and
    beta do not depend on r's scale) and t = 1/S_1(0).  g gives up the
    slacks, so it bounds the dual of (rho, sigma).
    """
    y, ker = math.exp(s), p.w_ker > 0.0
    if y > 0.0:
        r, b = [y / (lam + y) for lam in p.lam], [lam / (lam + y) for lam in p.lam]
    else:
        b = [float(not zero) for zero in p.ker]
        r = [1.0 - x for x in b] if ker else [0.0 if zero else 1.0 / lam for lam, zero in zip(p.lam, p.ker)]
    r1 = r2 = big_b = u = 0.0
    for w, ri, bi in zip(p.w, r, b):
        wr = w * ri
        r1, r2, big_b, u = r1 + wr, r2 + wr * ri, big_b + w * bi, u + wr * bi
    t = y / r1 if y > 0.0 or ker else 1.0 / r1
    alpha = slope = beta = 0.0
    for w, ri, bi, lam in zip(p.w, r, b, p.lam):
        dev, rate, wr = ri * big_b - bi * r1, ri * (u / r2) - bi, w * ri
        alpha, slope, beta = alpha + w * dev * dev, slope + wr * rate * rate, beta + wr * ri * lam
    dual = 1.0 - p.trace + t * (big_b - level) - p.slack - t * p.slack_t
    return _Root(t, s, alpha / (p.s0 * r2), -2.0 * slope, 1.0 - p.trace + beta / r2, dual, r, r2, p)


def _share(level: float, at_lo, at_hi) -> float:
    """The weight q0 of P_plus(lo) in the mixture (1 - q0) * P_plus(hi) + q0 *
    P_plus(lo) with alpha = level, clamped at 1 for a level >= alpha(P_plus(lo))."""
    gap = at_lo.alpha - at_hi.alpha
    return min(1.0, (level - at_hi.alpha) / gap) if gap > 0.0 else 1.0


def _place(bounds: tuple[float, float], dual: float, newest, at_lo, at_hi, level: float):
    """(bounds, at_lo, at_hi) with a search's newest point at the bracket end
    on its side of the level, and the (lower, upper) bounds on the optimal
    beta tightened by its dual and by the beta of the bracket-end mixture."""
    if newest.alpha <= level:
        at_hi = newest
    else:
        at_lo = newest
    lower, upper = max(bounds[0], dual), bounds[1]
    if at_hi is not None:
        upper = min(upper, at_hi.beta + _share(level, at_lo, at_hi) * (at_lo.beta - at_hi.beta))
    return (lower, upper), at_lo, at_hi


def _secular_search(p: _Pencil, level: float):
    """The level search of a pure sigma = psi psi^H, which takes no probes.

    rho - t*sigma is a rank-one downdate of rho = V diag(lam) V^H and has at
    most one negative eigenvalue -y, the root of t * S_1(-y) = 1 with
    S_k(mu) = sum_i |c_i|^2 / (lam_i - mu)^k and c = V^H psi (Golub 1973;
    Bunch, Nielsen and Sorensen 1978).  One eigh of rho, the pencil shared by
    the levels of the call, gives every point in O(d) scalar arithmetic
    (``_secular_point``), and P_plus = 1 - Pi_N - u u^H at either end.  It
    first takes y -> 0.  If alpha there is at most the level, the level sits
    on the jump at t(0): the ends are the test 1 - Pi_N and P_plus(t(0)), so
    the optimal test mixes in u u^H; this covers a full-rank rho above level
    1 - S_1(0)^2 / S_2(0) and rho = sigma, where every level sits on the jump
    at t = 1.  Otherwise it takes safeguarded Newton steps in s = log y, one
    guess from the newest point, with the probe search's ``_bracket_step``,
    to width T_TOL in s, where it ends, on its bounds and with at_hi = None
    when no y <= Y_MAX reaches the level.  It yields the probe search's
    bounds, lowered by the pencil's slacks, so they hold for (rho, sigma);
    its lower bound is the dual at the root itself, so it takes no dual step.

    The slack t * slack_t limits the levels it proves: a Haar pure sigma at
    d >= 3 has a purity residual of about 1.5e-16, never 0, and at levels
    of 1e-16 and below, whose thresholds pass t ~ 1e7, the gap exceeds
    GAP_TOL and ``helstrom`` raises SandwichViolated (some d = 3, 4 cases
    already at 1e-14).  At such t the dual of sigma itself is known only to
    about 2^-53 * t * d, so the slack stays.  An exactly rank-one sigma has no
    residual and is solved at 1e-16 and 1e-20.
    """
    # Newton steps on log(alpha / (alpha0 - alpha)), alpha0 = alpha(y -> 0),
    # close to linear in s at both ends: alpha0 - alpha ~ y as y -> 0, and
    # alpha ~ Var / y^2 as y -> inf, Var = sum w (lam - mean)^2.  The step
    # from y -> 0 solves that two-ended model; every y with
    # |psi|^2 lam_max^2 / y^2 <= level lies above the threshold.
    s_lo, s_hi = math.log(Y_MIN), math.log(min(Y_MAX, p.lam[-1] * math.sqrt(p.s0 / level)))

    def newton(end: _Root) -> float:
        if end.s == -math.inf:
            # alpha0 * level underflows to 0 at subnormal levels: an infinite model.
            model = p.spread * (alpha0 - level) / (alpha0 * level) if alpha0 * level > 0.0 else math.inf
            return min(max(0.5 * math.log(model), s_lo), s_hi) if model > 0.0 else s_hi
        if not (0.0 < end.alpha < alpha0 and end.slope < 0.0):
            return math.nan
        gap = alpha0 - end.alpha
        target = math.log(level / (alpha0 - level))
        return end.s - (math.log(end.alpha / gap) - target) * end.alpha * gap / (end.slope * alpha0)

    # The lower end starts at 1 - Pi_N, the plus projection below t(y -> 0).
    at_lo = _Root(0.0, -math.inf, p.s0, math.nan, 1.0 - p.trace, -math.inf, [0.0] * len(p.lam), 1.0, p)
    bounds, at_hi, lengths = (-math.inf, 1.0 - level), None, [math.inf, math.inf]
    newest = _secular_point(p, -math.inf, level)
    alpha0 = newest.alpha
    while True:
        bounds, at_lo, at_hi = _place(bounds, newest.dual, newest, at_lo, at_hi, level)
        lo, hi = max(at_lo.s, s_lo), s_hi if at_hi is None else at_hi.s
        if hi - lo <= T_TOL:
            yield *bounds, (at_lo, at_hi)
            return
        yield *bounds, None
        guess = newton(newest)
        s = _bracket_step(lo, hi, guess if lo <= guess <= hi else None, 0.5 * T_TOL, newest.s, lengths)
        newest = _secular_point(p, s, level)


def _probe_search(route: _Route, level: float):
    """The level search of a mixed sigma, by threshold probes (``_Route.probe``).

    A doubling search brackets t with alpha(P_plus(lo)) > level >=
    alpha(P_plus(hi)); past T_MAX it ends on its bounds, ends (at_lo, None).
    Safeguarded steps (``_bracket_step``) then shrink the bracket to a
    relative width T_TOL, each to the guess of the newest probe, else of
    the probe at the other end, that lies in the bracket, computed on demand
    (``_first_passage``).  The probes hold no level, so levels stepped in
    lockstep share the probes of their common doubling.  A solve costs one
    eigh per probe, none at t = 0 for a positive definite rho
    (``_unit_probe``), and one eigvalsh for the dual step.

    The last round yields the bounds as every round does, and one more
    yield adds the dual step (``_dual_step``, none past T_MAX) and the ends:
    a condition whose upper bounds already fix "not certified" stops before
    it, so an exact-zero margin is not certified on the dual step's rounding.
    On a jump of alpha the threshold is the probe where the eigenvalue that
    carries the jump passes EIG_FLOOR * (1 + t), at large t only to that
    eigenvalue's rounding, not to T_TOL (2.4e-12 relative at t ~ 2310,
    d = 64); beta is the same to 1e-15 there.
    """

    def guesses():
        # The newest probe's, then the other end's, on demand.
        for end in (newest, at_lo if newest.alpha <= level else at_hi):
            yield _first_passage(end, level)

    bounds, at_hi, lengths = (-math.inf, 1.0 - level), None, [math.inf, math.inf]
    newest = route.probe(0.0)
    # At or below the level at t = 0, the lower end is the test 1, with P_plus(0)'s beta.
    at_lo = newest if newest.alpha > level or newest.k == 0 else newest._replace(
        alpha=float(np.sum(newest.rate)), v=np.eye(newest.w.size), k=0)
    while True:
        bounds, at_lo, at_hi = _place(bounds, 1.0 - newest.t * level - newest.plus_trace, newest, at_lo, at_hi, level)
        yield *bounds, None
        if at_hi is None and newest.t <= T_MAX:
            t = max(1.0, 2.0 * newest.t)
        elif at_hi is None or at_hi.t - at_lo.t <= T_TOL * max(1.0, at_hi.t):
            lower = bounds[0] if at_hi is None else _dual_step(route, level, bounds[0], at_hi)
            yield lower, bounds[1], (at_lo, at_hi)
            return
        else:
            guess = next((g for g in guesses() if at_lo.t <= g <= at_hi.t), None)
            t = _bracket_step(at_lo.t, at_hi.t, guess, 0.5 * T_TOL * max(1.0, at_hi.t), newest.t, lengths)
        newest = route.probe(t)


def _tau_search(route: _Route, level: float):
    """The level search of the route's pair for the threshold, the smallest
    t >= 0 with alpha(P_plus(t)) <= level: an iterator of (lower, upper,
    ends) steps.

    lower bounds the optimal beta at the level from below (the best dual
    bound g(t) so far, less the route's allowance), upper from above (the
    beta of a test with alpha = level built so far, 1 - level before any),
    and ends is None until the last step, which carries the bracket-end
    tests (at_lo, at_hi) that ``_share`` mixes: at_hi.t is the threshold, at
    t = 0 at_lo is the test 1, and at_hi is None when the search ends on its
    bounds at T_MAX.  Level 0 (``_Route.kernel``, ends (None, None)) and a
    qubit pair (``qubit._Qubit.search``) take one step, a pure sigma
    (``_Route.pencil``) ``_secular_search`` and a mixed one ``_probe_search``.
    """
    if level == 0.0:
        kernel, allowance = route.kernel()
        b0 = 1.0 - float(np.sum(route.rho.matrix.T * kernel).real)
        return iter([(b0 - allowance, b0, (None, None))])
    if route.qubit is not None:
        lower, err, t, v, ends = route.qubit.search(level)
        at_lo, at_hi = (_Probe(t, alpha, beta, math.nan, math.nan, None, v, None, k) for alpha, beta, k in ends)
        if t == T_MAX:  # no t <= T_MAX reaches the level
            return iter([(lower, 1.0 - level, (at_lo, None))])
        upper = at_hi.beta + _share(level, at_lo, at_hi) * (at_lo.beta - at_hi.beta) + err
        return iter([(lower, upper, (at_lo, at_hi))])
    if route.pencil is not None:
        return _secular_search(route.pencil, level)
    return _probe_search(route, level)


def _dual_step(route: _Route, level: float, lower: float, end: _Probe) -> float:
    """The larger of a probe search's best dual bound lower and the dual bound
    g at t* = t + w_k / S_kk, the first-order zero crossing of the eigenvalue
    of its final probe end nearest to zero in t.

    The search stops where alpha(P_plus) passes the level with the plus set
    w > EIG_FLOOR * (1 + t), about EIG_FLOOR * (1 + t) / S_kk from the
    maximiser of g, where the eigenvalue that carries the jump crosses zero,
    and g there can fall short by up to EIG_FLOOR * (1 + t): past GAP_TOL
    from t ~ 1e4 on, which tiny levels reach.  One eigvalsh at t* recovers g.
    """
    moving = end.rate > 0.0
    if not moving.any():  # ``_unit_probe`` at a level >= Tr sigma, where g peaks at t = 0
        return lower
    steps = end.w[moving] / end.rate[moving]
    t_star = max(end.t + float(steps[np.argmin(np.abs(steps))]), 0.0)
    w = np.linalg.eigvalsh(route.rho.matrix - t_star * route.sigma.matrix)
    return max(lower, 1.0 - t_star * level - float(np.sum(w[w > 0.0])))


def helstrom(rho: DensityMatrix, sigma: DensityMatrix, alpha0: float) -> HelstromTest:
    """Optimal test for null sigma vs alternative rho at type-I error alpha0.

    The level search (``_tau_search``) ends on a bracket [lo, hi] with
    alpha(P_plus(lo)) > alpha0 >= alpha(P_plus(hi)).  M = (1 - q0) *
    P_plus(hi) + q0 * P_plus(lo), q0 = (alpha0 - alpha(P_plus(hi))) /
    (alpha(P_plus(lo)) - alpha(P_plus(hi))) (``_share``), attains alpha0
    exactly and is built from the search's own eigenpairs, with P_plus(lo) =
    1 when the threshold is t = 0.  A level at or above Tr sigma (1 - 1e-9
    passes ``validate_density``) takes q0 = 1: M = P_plus(lo), whose alpha is
    Tr sigma.  It reports t = hi, p_plus = P_plus(hi), p_zero = P_plus(lo) -
    P_plus(hi) (in general not a projector) and p_minus = 1 - P_plus(lo), so
    that M = p_plus + q0 * p_zero; ``HelstromTest`` says which are stable.

    beta(M) within GAP_TOL of the lower bound of the search's last step
    proves M optimal; a wider gap raises SandwichViolated, and so does a
    level that no t <= T_MAX reaches: this is the one raise for either.  An
    eigenvalue of rho - t*sigma counts as zero only within EIG_FLOOR * (1 +
    t), so tiny levels get the optimum too: a mixed sigma = diag(1 - 1e-10,
    1e-10) against the worked example's rho at 1e-20.  A pure sigma at d >=
    3 reaches them only when exactly rank one (``_secular_search``).

    alpha0 = 1 returns M = 1 with t = 0, q0 = 1 and projections (1, 0, 0).
    alpha0 = 0 returns the exact optimum, the projection onto the kernel of
    sigma as its eigh gives it (``_Route.kernel``; a qubit pair's in closed
    form), with p_zero = 0, q0 = 0 and t = inf.
    """
    route = _Route(rho, sigma)
    if not 0.0 <= alpha0 <= 1.0:
        raise ValueError("alpha0 must lie in [0, 1]")

    one = np.eye(rho.dim, dtype=np.complex128)
    if alpha0 == 1.0:
        plus_hi = plus_lo = one
        t, q0 = 0.0, 1.0
    elif alpha0 == 0.0:
        plus_hi = plus_lo = route.kernel()[0]
        t, q0 = math.inf, 0.0
    else:
        *_, (dual, _, (at_lo, at_hi)) = _tau_search(route, alpha0)
        if at_hi is None:
            raise SandwichViolated(f"no t <= 2^100 reaches type-I error level {alpha0}")
        plus_hi, plus_lo = at_hi.plus(), at_lo.plus()
        t, q0 = at_hi.t, _share(alpha0, at_lo, at_hi)
    m = (1.0 - q0) * plus_hi + q0 * plus_lo
    m = (m + m.conj().T) / 2.0
    # Tr[A m] as an elementwise sum, O(d^2) without the product A @ m.
    alpha = float(np.clip(np.sum(sigma.matrix.T * m).real, 0.0, 1.0))
    beta = float(np.clip(1.0 - np.sum(rho.matrix.T * m).real, 0.0, 1.0))
    if 0.0 < alpha0 < 1.0 and beta - dual > GAP_TOL:
        raise SandwichViolated(
            f"beta={beta:.6e} exceeds the dual bound {dual:.6e} by more than "
            f"{GAP_TOL:g} at alpha0={alpha0:.3e}, t={t:.6e}"
        )
    proj = SignedProjections(t=t, p_plus=plus_hi, p_zero=plus_lo - plus_hi, p_minus=one - plus_lo)
    return HelstromTest(m=m, t=t, q0=q0, alpha=alpha, beta=beta, projections=proj)


def _condition_levels(p_a: float, p_b: float) -> tuple[float, float]:
    """Type-I error levels (1 - p_a, p_b) of the tests M_A and M_B, or the one
    level L = max(1 - p_a, p_b) twice when ``_complementary(p_a, p_b)``."""
    _check_order(p_a, p_b)
    if _complementary(p_a, p_b):
        level = max(1.0 - p_a, p_b)
        return level, level
    return 1.0 - p_a, p_b


def _condition_margin(sigma: DensityMatrix, rho: DensityMatrix, p_a: float, p_b: float) -> float:
    """The verdict's margin, a lower bound on beta(M_A) + beta(M_B) - 1
    (2 * beta(L) - 1 on equal levels).  The level searches step in lockstep
    on one route, each keeps its last yield once it has ended, and each
    round sums their bounds: the first round whose bounds fix the sign
    (lower > 0, or upper <= 0) decides, else the last, whose lower bound is
    the dual margin g_A + g_B - 1.  A qubit pair's searches and level 0
    yield once, so the margin of a qubit pair is its converged dual margin,
    on which ``oracle.boundary_radius_search`` steps."""
    route = _Route(rho, sigma)
    levels = list(dict.fromkeys(_condition_levels(p_a, p_b)))
    weight = 2.0 / len(levels)
    searches = [_tau_search(route, level) for level in levels]
    steps = [(-math.inf, 1.0, None)] * len(levels)
    while any(ends is None for _, _, ends in steps):
        steps = [step if step[2] is not None else next(search) for step, search in zip(steps, searches)]
        lower = weight * sum(lo for lo, _, _ in steps) - 1.0
        if lower > 0.0 or weight * sum(up for _, up, _ in steps) - 1.0 <= 0.0:
            break
    return lower


def certify_condition(sigma: DensityMatrix, rho: DensityMatrix, p_a: float, p_b: float) -> bool:
    """Robustness condition from optimal testing.

    Decides for the optimal tests M_A (alpha = 1 - p_a) and M_B (alpha = p_b)
    for null sigma vs alternative rho whether beta(M_A) + beta(M_B) > 1.
    When true, every classifier whose top class on sigma has probability
    >= p_a and runner-up <= p_b must assign rho the same top class.

    The decision needs eigenvalues only and no test operator.  Every step of
    the level searches (``_tau_search``) bounds the optimal beta from below by
    the Lagrange dual g(t) = 1 - t * alpha0 - Tr[(rho - t*sigma)_+], less the
    route's allowance, and from above by the beta of a feasible test; the
    searches, stepped in lockstep (``_condition_margin``), stop once the
    summed bounds fix the sign, or else decide on their last lower bounds,
    g_A + g_B - 1, at T_MAX too: it never raises SandwichViolated.
    Certification rests on the dual bounds alone, so it never overclaims in
    exact arithmetic.  A qubit pair's bounds give up a running bound on their
    own rounding, so at d = 2 a margin must exceed that allowance; at d >= 3
    the bounds have no allowance yet, and a margin of a few ulps can still
    overclaim.  The two levels share the level-free work of one route
    (``_Route``); each route's search states its cost.

    When p_b equals 1 - p_a up to rounding (typed pairs such as (0.8, 0.2)),
    one test at the larger level L = max(1 - p_a, p_b) decides: beta does not
    increase with the level, so 2 * beta(L) > 1 implies the two-test
    condition and never overclaims.
    """
    return bool(_condition_margin(sigma, rho, p_a, p_b) > 0.0)


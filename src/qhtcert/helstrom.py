"""Optimal binary quantum hypothesis tests with a preassigned type-I error.

The null hypothesis is the benign state sigma, the alternative the adversarial
state rho.  A test is an operator 0 <= M <= 1 with error rates

    alpha(M) = Tr[sigma M]        (reject the null although it is true)
    beta(M)  = Tr[rho (1 - M)]    (accept the null although rho is true)

The minimizer of beta at fixed alpha is built from the projections P_plus(t)
onto the positive eigenspace of rho - t*sigma.  t -> alpha(P_plus(t)) is
non-increasing and right-continuous, so the threshold t at which it drops to
the requested level is bracketed by doubling, and the bracket is closed by
Newton steps taken from each probe's eigendecomposition, with bisection as
the safeguard.  The optimal test mixes the plus projections at the two
bracket ends so that it attains the level exactly, and its beta is checked
against the Lagrange dual bound, which proves it optimal.  At level 0 the
optimal test is the projection onto the kernel of sigma, with no search.

A rank-one sigma = psi psi^H (the paper's pure benign state) takes no
probes.  rho - t*sigma is then a rank-one downdate of rho = V diag(lam) V^H
and has at most one negative eigenvalue -y, the root of t * S_1(-y) = 1 with
S_k(mu) = sum_i |c_i|^2 / (lam_i - mu)^k and c = V^H psi (Golub 1973; Bunch,
Nielsen and Sorensen 1978).  One eigh of rho then serves every level: the
search steps in log y on closed forms of alpha, beta and the dual, and
builds the test from u = sum_i c_i / (lam_i + y) v_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import _check_order
from .errors import DimMismatch, InvalidTestOperator, NegativeT, SandwichViolated
from .states import TOL_PSD, DensityMatrix, hermitian_residual

# Relative zero-classification threshold for eigenvalues of rho - t*sigma.
DEFAULT_LAMBDA_TOL = 1e-8

# Absolute eigenvalue floor, scaled by (1 + t): when rho - t*sigma itself
# vanishes (e.g. rho = sigma at t = 1) its operator norm no longer provides a
# usable scale, so roundoff-sized eigenvalues must still count as zero.  The
# eigenvalues of sigma up to it span its kernel.
EIG_FLOOR = 1e-13

# Relative bracket width at which the search for t stops.
T_TOL = 1e-12

# Largest excess of a constructed test's beta over the dual lower bound.
GAP_TOL = 1e-9

# The secular search brackets y, the negative eigenvalue -y of
# rho - t*psi psi^H, in [Y_MIN, Y_MAX].  A root below Y_MIN, where the
# weights on ker rho are roundoff-sized, closes the bracket at Y_MIN; above
# Y_MAX the threshold t >= y / |psi|^2 is past the probe search's 2^100.
Y_MIN = 1e-60
Y_MAX = 2.0**100


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
    """One probe of the threshold search at t; see ``_threshold_probe``."""

    t: float
    below: bool
    newton: float
    alpha: float
    beta: float
    dual: float
    w: np.ndarray
    v: np.ndarray
    rate: np.ndarray
    thr: float
    k: int

    def plus(self) -> np.ndarray:
        """P_plus(t), the span of the eigenvectors above the zero band."""
        return _span(self.v[:, self.k:])


@dataclass(frozen=True, eq=False)
class HelstromTest:
    """An optimal test M = p_plus + q0 * p_zero attaining alpha = alpha0; see ``helstrom``."""

    m: np.ndarray
    t: float
    q0: float
    alpha: float
    beta: float
    projections: SignedProjections


def _zero_threshold(w: np.ndarray, t: float) -> float:
    op_norm = float(max(-w[0], w[-1])) if w.size else 0.0  # max |w| of ascending w
    return max(DEFAULT_LAMBDA_TOL * op_norm, EIG_FLOOR * (1.0 + t))


def _span(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of orthonormal columns."""
    return cols @ cols.conj().T


def _kernel(sigma: DensityMatrix) -> np.ndarray:
    """Orthonormal columns spanning ker sigma: the eigenvectors of sigma whose
    eigenvalues are at most EIG_FLOOR, from one eigh."""
    w, v = np.linalg.eigh(sigma.matrix)
    return v[:, w <= EIG_FLOOR]


def signed_projections(rho: DensityMatrix, sigma: DensityMatrix, t: float) -> SignedProjections:
    """Classify the spectrum of rho - t*sigma into +/0/- eigenspaces.

    Eigenvalues with |lambda| <= DEFAULT_LAMBDA_TOL * ||rho - t*sigma||_op
    are assigned to the zero space, with the absolute floor
    EIG_FLOOR * (1 + t) guarding the vanishing-difference case.
    """
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    if t < 0:
        raise NegativeT(f"t must be non-negative, got {t}")
    w, v = np.linalg.eigh(rho.matrix - t * sigma.matrix)
    thr = _zero_threshold(w, t)
    plus = _span(v[:, w > thr])
    minus = _span(v[:, w < -thr])
    zero = np.eye(len(w)) - plus - minus
    return SignedProjections(t=float(t), p_plus=plus, p_zero=zero, p_minus=minus)


def error_probabilities(m, sigma: DensityMatrix, rho: DensityMatrix):
    """(alpha, beta) of the test operator M against null sigma / alternative rho."""
    mat = np.asarray(m, dtype=np.complex128)
    if mat.shape != (sigma.dim, sigma.dim) or rho.dim != sigma.dim:
        raise DimMismatch("test operator and states must share one dimension")
    res = hermitian_residual(mat)
    if res > 1e-8:
        raise InvalidTestOperator("test operator is not Hermitian", residual=res)
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    if w[0] < -TOL_PSD or w[-1] > 1.0 + TOL_PSD:
        raise InvalidTestOperator(
            "test operator eigenvalues outside [0, 1]",
            residual=float(max(-w[0], w[-1] - 1.0)),
        )
    alpha = float(np.clip(np.real(np.trace(sigma.matrix @ mat)), 0.0, 1.0))
    beta = float(np.clip(1.0 - np.real(np.trace(rho.matrix @ mat)), 0.0, 1.0))
    return alpha, beta


def _threshold_probe(rho: DensityMatrix, sigma: DensityMatrix, t: float, level: float):
    """One eigendecomposition of rho - t*sigma: whether alpha(P_plus(t)) <= level,
    a Newton guess for the threshold (NaN where there is none), the error
    rates of the test P_plus(t), the dual bound at t, and the eigenpairs with
    the rates S_kk, the zero threshold and the plus-set start.

    With S = V^H sigma V in the eigenbasis of rho - t*sigma, alpha(P_plus) is
    the sum of S_kk over the plus set, each eigenvalue moves at
    d(lambda_k)/dt = -S_kk (Hellmann-Feynman), and first-order perturbation
    theory gives the slope alpha'(t) = -2 sum_{i in +, j not in +}
    |S_ij|^2 / (lambda_i - lambda_j).  The guess is a Newton step on
    alpha - level.  The second guess, for levels that sit on a jump of
    alpha, is computed on demand from the probe by ``_crossing``.

    beta(P_plus) = 1 - Tr[(rho - t*sigma) P_plus] - t * alpha(P_plus), and the
    Lagrange dual g(t) = 1 - t * level - Tr[(rho - t*sigma)_+] bounds the beta
    of every test with alpha <= level from below (weak duality).
    """
    w, v = np.linalg.eigh(rho.matrix - t * sigma.matrix)
    thr = _zero_threshold(w, t)
    k = int(np.searchsorted(w, thr, side="right"))  # P_plus(t) spans the eigenvectors of w[k:]
    s = v.conj().T @ sigma.matrix @ v
    rate = s.diagonal().real
    # ndarray.sum is the reduction np.sum calls, without its dispatch.
    alpha = float(rate[k:].sum())
    beta = 1.0 - float(w[k:].sum()) - t * alpha
    dual = 1.0 - t * level - float(w[w > 0.0].sum())
    gap = w[k:, None] - w[None, :k]
    slope = -2.0 * float((np.abs(s[k:, :k]) ** 2 / gap).sum())
    newton = t - (alpha - level) / slope if slope < 0.0 else math.nan
    return _Probe(t, alpha <= level, newton, alpha, beta, dual, w, v, rate, thr, k)


def _crossing(probe: _Probe, level: float) -> float:
    """The probe's guess for a threshold on a jump of alpha (NaN where there
    is none): move every eigenvalue at its rate toward the level and return
    the first crossing of the zero threshold after which the plus set's
    weight has passed the level.

    Below the level the threshold lies to the left, where eigenvalues
    outside P_plus rise through thr and add their weight; above it, to the
    right, where eigenvalues in P_plus fall through thr and take theirs away.
    """
    sign, side = (1.0, slice(None, probe.k)) if probe.below else (-1.0, slice(probe.k, None))
    moving = probe.rate[side] > 0.0
    times = probe.t + (probe.w[side][moving] - probe.thr) / probe.rate[side][moving]
    order = np.argsort(-sign * times)
    weight = probe.alpha + sign * np.cumsum(probe.rate[side][moving][order])
    passed = (weight > level) == probe.below
    return float(times[order][np.argmax(passed)]) if np.any(passed) else math.nan


def _bracket_step(
    lo: float, hi: float, guess: float | None, half_tol: float, newest: float, lengths: list[float]
) -> float | None:
    """Next probe strictly inside the bracket (lo, hi), or None when no float lies there.

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
    if not lo < t < hi:
        return None
    lengths[:] = [lengths[1], abs(t - newest)]
    return t


class _Pencil:
    """One eigh of rho = V diag(lam) V^H and c = V^H psi, shared by the
    secular searches of a call (see ``_Route``).  Eigenvalues up to EIG_FLOOR
    are set to 0, so that ker rho is exact and u is orthogonal to
    N = ker rho & psi^perp; that moves rho by ``slack`` in trace norm."""

    def __init__(self, rho: DensityMatrix, psi: np.ndarray, slack_t: float):
        lam, self.v = np.linalg.eigh(rho.matrix)
        self.zero = lam <= EIG_FLOOR
        self.slack, self.slack_t = float(np.abs(lam[self.zero]).sum()), slack_t
        self.lam = np.where(self.zero, 0.0, lam)
        self.c = (psi.conj() @ self.v).conj()
        self.w = self.c.real**2 + self.c.imag**2
        self.w_ker, self.s0 = float(self.w[self.zero].sum()), float(self.w.sum())
        self.trace = float(self.lam.sum())
        self._keep = None

    def keep(self) -> np.ndarray:
        """1 - Pi_N, from the smaller of ker rho and its range."""
        if self._keep is None:
            kc = self.v[:, self.zero] @ self.c[self.zero]
            psi_ker = np.outer(kc, kc.conj()) / self.w_ker if self.w_ker > 0.0 else 0.0
            if 2 * int(self.zero.sum()) > self.zero.size:
                self._keep = _span(self.v[:, ~self.zero]) + psi_ker
            else:
                self._keep = np.eye(self.zero.size) - _span(self.v[:, self.zero]) + psi_ker
        return self._keep


class _Route:
    """How the level searches of one call run, decided once in O(d^2) and
    without an eigh of sigma: psi = sigma[:, j] / sqrt(sigma_jj), j the
    largest diagonal entry, when ||sigma - psi psi^H||_F <= EIG_FLOOR (the
    secular search on ``pencil(rho)``), else None (threshold probes).
    slack = sqrt(d) * ||sigma - psi psi^H||_F bounds the residual's trace
    norm, so the dual of (rho, psi psi^H) at t exceeds that of (rho, sigma)
    by at most t * slack."""

    def __init__(self, sigma: DensityMatrix):
        mat = sigma.matrix
        j = int(np.argmax(mat.diagonal().real))
        self.psi, self.slack, self._pencil = None, math.inf, None
        if mat[j, j].real > 0.0:
            psi = mat[:, j] / math.sqrt(mat[j, j].real)
            diff = mat - np.outer(psi, psi.conj())
            residual = math.sqrt(np.vdot(diff, diff).real)
            if residual <= EIG_FLOOR:
                self.psi, self.slack = psi, math.sqrt(sigma.dim) * residual

    def kernel(self) -> np.ndarray:
        """Pi_ker = 1 - psi psi^H / |psi|^2, the kernel projection of sigma = psi psi^H."""
        return np.eye(self.psi.size) - np.outer(self.psi, self.psi.conj()) / np.vdot(self.psi, self.psi).real

    def pencil(self, rho: DensityMatrix) -> _Pencil:
        if self._pencil is None:
            self._pencil = _Pencil(rho, self.psi, self.slack)
        return self._pencil


class _Root(NamedTuple):
    """One point of the secular search; see ``_secular_point``."""

    t: float
    s: float
    below: bool
    alpha: float
    slope: float
    beta: float
    dual: float
    r: np.ndarray
    r2: float
    pencil: _Pencil

    def plus(self) -> np.ndarray:
        """P_plus(t) = 1 - Pi_N - u u^H, u the unit eigenvector of the eigenvalue -y."""
        p = self.pencil
        u = p.v @ (p.c * (self.r / math.sqrt(self.r2)))
        return p.keep() - np.outer(u, u.conj())


def _secular_point(p: _Pencil, s: float, level: float) -> _Root:
    """The point of the secular search where rho - t*psi psi^H has the
    eigenvalue -y, y = exp(s): t, alpha and beta of P_plus(t), the dual g(t)
    and d alpha / ds, in O(d) and free of cancellation.

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
        den = p.lam + y
        r, b = y / den, p.lam / den
    elif ker:
        r = p.zero.astype(float)
        b = 1.0 - r
    else:
        r = np.divide(1.0, p.lam, out=np.zeros_like(p.lam), where=~p.zero)
        b = (~p.zero).astype(float)
    wr = p.w * r
    wr2 = wr * r
    r1, r2, big_b, u = float(wr.sum()), float(wr2.sum()), float(p.w @ b), float(wr @ b)
    t = y / r1 if y > 0.0 or ker else 1.0 / r1
    dev = r * big_b - b * r1
    alpha = float((p.w * dev) @ dev) / (p.s0 * r2)
    rate = r * (u / r2) - b
    slope = -2.0 * float((wr * rate) @ rate)
    beta = 1.0 - p.trace + float(wr2 @ p.lam) / r2
    dual = 1.0 - p.trace + t * (big_b - level) - p.slack - t * p.slack_t
    return _Root(t, s, alpha <= level, alpha, slope, beta, dual, r, r2, p)


def _tighter(bounds: tuple[float, float], newest, at_lo, at_hi, level: float) -> tuple[float, float]:
    """The (lower, upper) bounds on the optimal beta tightened by a search's
    newest point: its dual, and the beta of the mixture of the bracket-end
    tests P_plus(lo), P_plus(hi) that attains alpha = level (P_plus(hi)
    itself when lo is None)."""
    lower, upper = max(bounds[0], newest.dual), bounds[1]
    if at_hi is not None:
        mix = at_hi.beta
        if at_lo is not None:
            share = (level - at_hi.alpha) / (at_lo.alpha - at_hi.alpha)
            mix += share * (at_lo.beta - at_hi.beta)
        upper = min(upper, mix)
    return lower, upper


def _secular_search(p: _Pencil, level: float):
    """The threshold search of a rank-one sigma; see ``_tau_search``."""
    # 1 - Pi_N, the plus projection below t(y -> 0).
    whole = _Root(0.0, -math.inf, False, p.s0, math.nan, 1.0 - p.trace, -math.inf, 0.0 * p.lam, 1.0, p)
    newest = _secular_point(p, -math.inf, level)
    at_lo, at_hi = (whole, newest) if newest.below else (newest, None)
    bounds = _tighter((-math.inf, 1.0 - level), newest, at_lo, at_hi, level)
    yield bounds
    if at_hi is not None:
        return at_lo, at_hi

    # Newton steps on log(alpha / (alpha0 - alpha)), alpha0 = alpha(y -> 0),
    # close to linear in s at both ends: alpha0 - alpha ~ y as y -> 0, and
    # alpha ~ Var / y^2 as y -> inf, Var = sum w (lam - mean)^2.  The first
    # point solves that two-ended model; every y with
    # |psi|^2 lam_max^2 / y^2 <= level lies above the threshold.
    alpha0 = newest.alpha
    target = math.log(level / (alpha0 - level))

    def newton(end: _Root | None) -> float:
        if end is None or end.s == -math.inf or not (0.0 < end.alpha < alpha0 and end.slope < 0.0):
            return math.nan
        gap = alpha0 - end.alpha
        return end.s - (math.log(end.alpha / gap) - target) * end.alpha * gap / (end.slope * alpha0)

    spread = float(p.w @ (p.lam - float(p.w @ p.lam) / p.s0) ** 2)
    s_lo, s_hi = math.log(Y_MIN), math.log(min(Y_MAX, float(p.lam[-1]) * math.sqrt(p.s0 / level)))
    guess = spread * (alpha0 - level) / (alpha0 * level)
    newest = _secular_point(p, min(max(0.5 * math.log(guess), s_lo), s_hi) if guess > 0.0 else s_hi, level)
    lengths = [math.inf, math.inf]
    while True:
        if newest.below:
            at_hi = newest
        else:
            at_lo = newest
        bounds = _tighter(bounds, newest, at_lo, at_hi, level)
        yield bounds
        lo, hi = max(at_lo.s, s_lo), s_hi if at_hi is None else at_hi.s
        if hi - lo <= T_TOL:
            break
        guesses = (newton(newest), newton(at_lo if newest.below else at_hi))
        s = _bracket_step(lo, hi, next((g for g in guesses if lo <= g <= hi), None), 0.5 * T_TOL, newest.s, lengths)
        if s is None:
            break
        newest = _secular_point(p, s, level)
    if at_hi is None:
        raise SandwichViolated(f"no t <= 2^100 reaches type-I error level {level}")
    return at_lo, at_hi


def _tau_search(rho: DensityMatrix, sigma: DensityMatrix, level: float, route: _Route | None = None):
    """Smallest t >= 0 with alpha(P_plus(t)) <= level, as a generator.

    A doubling search brackets t with alpha(P_plus(lo)) > level >=
    alpha(P_plus(hi)); safeguarded Newton steps then shrink the bracket to a
    relative width T_TOL.  Each step takes the first guess of the newest probe
    (its Newton step on alpha, then its step to an eigenvalue crossing), then
    of the probe at the other end, that lies in the bracket, clamped at least
    half the tolerance inside it so that a converged step closes it.  A
    crossing is computed only when the guesses before it miss the bracket.
    It bisects when no guess lies in the bracket or when the step would move
    farther from the newest probe than half the step taken two steps earlier.

    After every probe it yields (lower, upper) bounds on the optimal beta at
    the level: lower is the largest dual bound g(t) of the probes so far,
    upper the smallest beta of a test with alpha = level built from them,
    the mixture of the bracket-end tests P_plus(lo) and P_plus(hi), or
    level * 1 before any probe has reached the level.  It returns the
    bracket-end probes (at_lo, at_hi), at_lo None when the threshold is
    t = 0; at_hi.t is the threshold.  ``_converged`` runs it to the end.

    route (``_Route``, made here when None) decides in O(d^2) whether
    sigma = psi psi^H up to ||sigma - psi psi^H||_F <= EIG_FLOOR, once for
    all searches of a call.  Then the search takes no probes: one eigh of rho
    (the route's pencil) gives every point in O(d) (``_secular_point``).  It
    first takes y -> 0.  When alpha there is at most the level, the level
    sits on the jump of alpha at t(0), and the ends are the test 1 - Pi_N
    and P_plus(t(0)).  Otherwise it takes safeguarded Newton steps in
    s = log y (see ``_secular_search``) with the same bracket step, to width
    T_TOL in s, and yields the same bounds; its lower bound is the dual at
    the root itself, so no dual step follows.  The cost is one eigh and a
    few O(d) vector passes per level, against 5-12 eigh of rho - t*sigma.
    The bounds hold for (rho, sigma): the dual is lowered by t times the
    route's residual bound and by the eigenvalues set to zero (``_Pencil``).

    Level 0 has no threshold: the dual g(t) = 1 - Tr[(rho - t*sigma)_+] does
    not decrease in t, and its limit is the beta of the optimal test, the
    projection onto ker sigma.  One eigh of sigma (``_kernel``) yields the
    bounds (b0, b0), b0 = 1 - Tr[rho Pi_ker], and the search returns
    (None, None).  Roundoff can only add near-kernel vectors (eigenvalues up
    to EIG_FLOOR) to Pi_ker, and they can only lower b0: as a lower bound b0
    never overclaims, and as an upper bound it can only stop a search at
    "not certified".  For a rank-one sigma, Pi_ker = 1 - psi psi^H / |psi|^2
    with no eigh; it is within twice the route's slack of the eigh's, which
    the lower bound gives up.
    """
    if route is None:
        route = _Route(sigma)
    if level == 0.0:
        if route.psi is None:
            cols = _kernel(sigma)
            b0 = 1.0 - float(np.real(np.sum(cols.conj() * (rho.matrix @ cols))))
            yield b0, b0
        else:
            b0 = 1.0 - float(np.sum(rho.matrix.T * route.kernel()).real)
            yield b0 - 2.0 * route.slack, b0
        return None, None
    if route.psi is not None:
        return (yield from _secular_search(route.pencil(rho), level))

    def probe(t: float) -> _Probe:
        return _threshold_probe(rho, sigma, t, level)

    def guesses():
        # The newest probe's, then the other end's, each crossing on demand.
        for end in (newest, at_lo if newest.below else at_hi):
            yield end.newton
            yield _crossing(end, level)

    bounds = (-math.inf, 1.0 - level)
    at_lo, at_hi = None, None
    newest = probe(0.0)
    while not newest.below:
        if newest.t > 2.0**100:
            raise SandwichViolated(f"no t <= 2^100 reaches type-I error level {level}")
        at_lo = newest
        bounds = _tighter(bounds, newest, at_lo, at_hi, level)
        yield bounds
        newest = probe(max(1.0, 2.0 * newest.t))
    at_hi = newest
    bounds = _tighter(bounds, newest, at_lo, at_hi, level)
    yield bounds
    if at_lo is None:
        return at_lo, at_hi

    lengths = [math.inf, math.inf]
    while at_hi.t - at_lo.t > T_TOL * max(1.0, at_hi.t):
        guess = next((g for g in guesses() if at_lo.t <= g <= at_hi.t), None)
        t = _bracket_step(at_lo.t, at_hi.t, guess, 0.5 * T_TOL * max(1.0, at_hi.t), newest.t, lengths)
        if t is None:
            break
        newest = probe(t)
        if newest.below:
            at_hi = newest
        else:
            at_lo = newest
        bounds = _tighter(bounds, newest, at_lo, at_hi, level)
        yield bounds
    return at_lo, at_hi


def _dual_step(rho: DensityMatrix, sigma: DensityMatrix, level: float, lower: float, end) -> float:
    """The larger of a search's best dual bound lower and the dual bound g at
    t* = t + w_k / S_kk, the first-order zero crossing of the eigenvalue of
    the search's final probe nearest to zero in t; lower itself when the
    search ended without probes (level 0, where lower is the optimum, and
    the secular search, whose lower is the dual at its root).

    The search stops where alpha(P_plus) passes the level with the plus set
    w > thr, about thr / S_kk past the maximiser of g, where the eigenvalue
    that carries the jump crosses zero; one eigvalsh at t* recovers g there.
    """
    if not isinstance(end, _Probe):
        return lower
    moving = end.rate > 0.0
    steps = end.w[moving] / end.rate[moving]
    t_star = max(end.t + float(steps[np.argmin(np.abs(steps))]), 0.0)
    w = np.linalg.eigvalsh(rho.matrix - t_star * sigma.matrix)
    return max(lower, 1.0 - t_star * level - float(np.sum(w[w > 0.0])))


def _converged(rho: DensityMatrix, sigma: DensityMatrix, level: float):
    """Run the threshold search at level to its end: (the best dual bound on
    the optimal beta, its dual step included, at_lo, at_hi)."""
    search = _tau_search(rho, sigma, level)
    while True:
        try:
            lower, _ = next(search)
        except StopIteration as stop:
            at_lo, at_hi = stop.value
            return _dual_step(rho, sigma, level, lower, at_hi), at_lo, at_hi


def helstrom(rho: DensityMatrix, sigma: DensityMatrix, alpha0: float) -> HelstromTest:
    """Optimal test for null sigma vs alternative rho at type-I error alpha0.

    The threshold search ends on a bracket [lo, hi] with alpha(P_plus(lo)) >
    alpha0 >= alpha(P_plus(hi)).  M = (1 - q0) * P_plus(hi) + q0 * P_plus(lo),
    q0 = (alpha0 - alpha(P_plus(hi))) / (alpha(P_plus(lo)) - alpha(P_plus(hi))),
    attains alpha0 exactly and is built from the search's own eigenpairs, with
    P_plus(lo) = 1 when the threshold is t = 0.  For a rank-one sigma
    P_plus = 1 - Pi_N - u u^H at either end (see ``_tau_search``), and on a
    jump of alpha the lower end is 1 - Pi_N, so M mixes in u u^H.  This
    covers a full-rank rho above level 1 - S_1(0)^2 / S_2(0) and rho = sigma,
    where every level sits on the jump at t = 1.  It reports t = hi,
    p_plus = P_plus(hi), p_zero = P_plus(lo) - P_plus(hi) (in general not a
    projector) and p_minus = 1 - P_plus(lo), so that M = p_plus + q0 * p_zero.

    beta(M) within GAP_TOL of the best dual bound of the search and of one
    dual step (``_converged``) proves M optimal; a wider gap raises
    SandwichViolated.  For a mixed sigma that happens at levels so small that
    the relative zero band swallows a positive eigenvalue; the secular search
    of a rank-one sigma has no zero band and answers the worked example at
    1e-20.  A solve costs one eigh per probe and one eigvalsh, or one eigh of
    rho for a rank-one sigma.

    alpha0 = 1 returns M = 1 with t = 0, q0 = 1 and projections (1, 0, 0).
    alpha0 = 0 returns the exact optimum, the projection onto the kernel of
    sigma (``_kernel``, or 1 - psi psi^H / |psi|^2 for a rank-one sigma with
    no eigh), with p_zero = 0, q0 = 0 and t = inf (see ``_tau_search``).
    """
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    if not 0.0 <= alpha0 <= 1.0:
        raise ValueError("alpha0 must lie in [0, 1]")

    one = np.eye(rho.dim, dtype=np.complex128)
    if alpha0 == 1.0:
        plus_hi = plus_lo = one
        t, q0 = 0.0, 1.0
    elif alpha0 == 0.0:
        route = _Route(sigma)
        plus_hi = plus_lo = _span(_kernel(sigma)) if route.psi is None else route.kernel()
        t, q0 = math.inf, 0.0
    else:
        dual, at_lo, at_hi = _converged(rho, sigma, alpha0)
        plus_hi = at_hi.plus()
        if at_lo is None:
            plus_lo, alpha_lo = one, float(np.sum(at_hi.rate))
        else:
            plus_lo, alpha_lo = at_lo.plus(), at_lo.alpha
        t, q0 = at_hi.t, (alpha0 - at_hi.alpha) / (alpha_lo - at_hi.alpha)
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
    level L = max(1 - p_a, p_b) twice when p_b equals 1 - p_a up to rounding."""
    _check_order(p_a, p_b)
    if abs(p_b - (1.0 - p_a)) <= 1e-15:
        level = max(1.0 - p_a, p_b)
        return level, level
    return 1.0 - p_a, p_b


def _condition_margin(sigma: DensityMatrix, rho: DensityMatrix, p_a: float, p_b: float) -> float:
    """A lower bound on beta(M_A) + beta(M_B) - 1 (2 * beta(L) - 1 on equal
    levels) whose sign is the verdict of ``certify_condition``.

    Steps the level searches in lockstep and sums the dual bounds g they
    yield.  It returns as soon as the sign is known: the lower bounds sum
    past 1 (certified), or the upper bounds, betas of feasible tests, sum to
    at most 1 (not certified).  When the searches converge first, each level
    adds a dual step (``_dual_step``) and the margin is the dual one,
    g_A + g_B - 1 at the best t found.  The searches share one route
    (``_Route``), so a rank-one sigma costs one eigh of rho for both levels.
    """
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    levels = list(dict.fromkeys(_condition_levels(p_a, p_b)))
    weight = 2.0 / len(levels)
    route = _Route(sigma)
    searches = [_tau_search(rho, sigma, level, route) for level in levels]
    bounds = [(-math.inf, 1.0)] * len(levels)
    ends: list[tuple | None] = [None] * len(levels)
    while any(end is None for end in ends):
        for i, search in enumerate(searches):
            if ends[i] is None:
                try:
                    bounds[i] = next(search)
                except StopIteration as stop:
                    ends[i] = stop.value
        lower = weight * sum(lo for lo, _ in bounds) - 1.0
        if lower > 0.0 or weight * sum(up for _, up in bounds) <= 1.0:
            return lower
    duals = [_dual_step(rho, sigma, level, lo, at_hi) for (lo, _), level, (_, at_hi) in zip(bounds, levels, ends)]
    return weight * sum(duals) - 1.0


def certify_condition(sigma: DensityMatrix, rho: DensityMatrix, p_a: float, p_b: float) -> bool:
    """Robustness condition from optimal testing.

    Decides for the optimal tests M_A (alpha = 1 - p_a) and M_B (alpha = p_b)
    for null sigma vs alternative rho whether beta(M_A) + beta(M_B) > 1.
    When true, every classifier whose top class on sigma has probability
    >= p_a and runner-up <= p_b must assign rho the same top class.

    The decision needs eigenvalues only and no test operator.  Every probe
    of the threshold searches bounds the optimal beta from below by the
    Lagrange dual g(t) = 1 - t * alpha0 - Tr[(rho - t*sigma)_+] and from
    above by the beta of a feasible test; the searches stop once the bounds
    fix the sign.  Certification rests on the dual bounds alone, so it never
    overclaims.  When the searches converge undecided, one dual step per
    level (``_dual_step``) decides on g_A + g_B - 1.  At p_a = 1 the level-0
    search yields the exact beta of the kernel projection of sigma from one
    eigh (see ``_tau_search``).  A rank-one sigma takes one eigh of rho in
    all, at any levels, and no eigvalsh.

    When p_b equals 1 - p_a up to rounding (typed pairs such as (0.8, 0.2)),
    one test at the larger level L = max(1 - p_a, p_b) decides: beta does not
    increase with the level, so 2 * beta(L) > 1 implies the two-test
    condition and never overclaims.
    """
    return bool(_condition_margin(sigma, rho, p_a, p_b) > 0.0)

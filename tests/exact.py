"""Exact references for 2x2 pairs, in the stdlib ``decimal`` module.

A pair comes as the float matrices the library receives.  Every float is an
exact decimal, so the values below are those of the matrices as given, to
``DIGITS`` significant digits; entries are read from the lower triangle, as
``numpy.linalg.eigh`` reads them.  In Bloch form sigma = (tau_s 1 + s.S)/2
and rho = (tau_r 1 + r.S)/2, so rho - t*sigma has the eigenvalues
(a +- |v|)/2 with a = tau_r - t tau_s and v = r - t s.

* ``beta`` is the optimal type-II error at a type-I level L, the maximum over
  t >= 0 of the Lagrange dual g(t) = 1 - t L - Tr[(rho - t*sigma)_+].  g is
  concave, and the maximum lies at t = 0, at a root of det(rho - t*sigma) = 0
  (an eigenvalue changes sign), or at a stationary point in the rank-one
  region, a root of t^2 |s|^2 (|s|^2 - c^2) - 2 t (r.s) (|s|^2 - c^2) +
  (r.s)^2 - c^2 |r|^2 = 0 with c = 2L - tau_s.  At level 0
  it is the limit of g as t -> inf.
* ``margin`` is the condition margin beta(1 - pA) + beta(pB) - 1.
* ``decimal_dual_beta`` finds the same maximum by golden-section search on g,
  the cross-check of the candidate maximum.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

DIGITS = 60


class _Pair:
    """The exact Bloch form of a 2x2 pair (rho, sigma), inside a DIGITS context."""

    def __init__(self, rho, sigma):
        def bloch(m):
            m = getattr(m, "matrix", m)
            p, w, q = (Decimal(float(x)) for x in (m[0, 0].real, m[1, 1].real, m[1, 0].real))
            return p + w, (2 * q, 2 * Decimal(float(m[1, 0].imag)), p - w)

        (self.tau_r, self.r), (self.tau_s, self.s) = bloch(rho), bloch(sigma)

    def dual(self, t: Decimal, level: Decimal) -> Decimal:
        (rx, ry, rz), (sx, sy, sz) = self.r, self.s
        a, vx, vy, vz = self.tau_r - t * self.tau_s, rx - t * sx, ry - t * sy, rz - t * sz
        norm = (vx * vx + vy * vy + vz * vz).sqrt()
        plus = a if a >= norm else (a + norm) / 2 if a + norm > 0 else 0
        return 1 - t * level - plus

    def candidates(self, level: Decimal) -> list[Decimal]:
        (rx, ry, rz), (sx, sy, sz) = self.r, self.s
        dot, ss, rr = rx * sx + ry * sy + rz * sz, sx * sx + sy * sy + sz * sz, rx * rx + ry * ry + rz * rz
        cross2 = (ry * sz - rz * sy) ** 2 + (rz * sx - rx * sz) ** 2 + (rx * sy - ry * sx) ** 2
        # 4 det(rho - t*sigma) = A t^2 - 2 B t + C; roots q / A and C / q.
        a, b, c = self.tau_s**2 - ss, self.tau_r * self.tau_s - dot, self.tau_r**2 - rr
        ts = [Decimal(0)]
        if b * b >= a * c:
            q = b + (b * b - a * c).sqrt().copy_sign(b)
            ts += [q / a] if a else []
            ts += [c / q] if q else []
        slope = 2 * level - self.tau_s
        room = ss - slope * slope
        if room > 0 and ss > 0:
            wing = abs(slope) * (cross2 / room).sqrt()
            ts += [(dot - wing) / ss, (dot + wing) / ss]
        return [t for t in ts if t >= 0]


def beta(rho, sigma, level) -> Decimal:
    """The optimal beta at type-I level ``level``: the largest dual at the
    candidate points, or at level 0 the limit of the dual as t -> inf."""
    with localcontext(prec=DIGITS):
        pair, level = _Pair(rho, sigma), Decimal(level)
        best = max(pair.dual(t, level) for t in pair.candidates(level))
        if level == 0:
            # g no longer falls: 1 for a definite sigma, 1 - <k|rho|k> on the
            # kernel k of a rank-one sigma, else the stationary maximum.
            det4 = pair.tau_s**2 - sum(x * x for x in pair.s)
            if det4 > 0:
                best = Decimal(1)
            elif det4 == 0 and pair.tau_s > 0:
                along = sum(x * y for x, y in zip(pair.r, pair.s)) / pair.tau_s
                best = 1 - (pair.tau_r - along) / 2
        return +best


def margin(sigma, rho, p_a: float, p_b: float) -> Decimal:
    """beta(1 - pA) + beta(pB) - 1 at the exact levels of the float pA, pB."""
    with localcontext(prec=DIGITS):
        level_a = 1 - Decimal(p_a)
        return beta(rho, sigma, level_a) + beta(rho, sigma, Decimal(p_b)) - 1


def decimal_dual_beta(rho, sigma, level, width: str = "1e-45") -> Decimal:
    """The optimal beta by golden-section search on the concave dual g over
    t >= 0, to a bracket of relative width ``width``."""
    with localcontext(prec=DIGITS):
        pair, level, width = _Pair(rho, sigma), Decimal(level), Decimal(width)

        def g(t: Decimal) -> Decimal:
            return pair.dual(t, level)

        golden = (Decimal(5).sqrt() - 1) / 2
        lo, hi = Decimal(0), Decimal(1)
        while g(2 * hi) > g(hi):
            hi *= 2
        hi *= 2
        x, y = hi - golden * (hi - lo), lo + golden * (hi - lo)
        gx, gy = g(x), g(y)
        best = max(g(lo), gx, gy)
        while hi - lo > width * (1 + hi):
            if gx >= gy:
                hi, y, gy = y, x, gx
                x = hi - golden * (hi - lo)
                gx = g(x)
            else:
                lo, x, gx = x, y, gy
                y = lo + golden * (hi - lo)
                gy = g(y)
            best = max(best, gx, gy)
        return +best

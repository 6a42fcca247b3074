"""The qubit route of the optimal-test solver (``helstrom._Route``): a 2x2
pair in closed form, with no eigendecomposition and no search."""

from __future__ import annotations

import math
from functools import cached_property

from .states import DensityMatrix


def _top(p: float, w: float, x: float, y: float):
    """(rad, u) of the Hermitian [[p, x + iy], [x - iy, w]]: its eigenvalues
    are (p + w)/2 +- rad, and u is the unit eigenvector of the larger one,
    free of cancellation ((1, 0) for a multiple of 1)."""
    h = 0.5 * (p - w)
    rad = math.hypot(h, x, y)
    u0, u1 = (h + rad, complex(x, -y)) if h >= 0.0 else (complex(x, y), rad - h)
    norm = math.hypot(abs(u0), abs(u1))  # sqrt(2 rad (rad + |h|)) underflows below rad = 1e-154
    return rad, (u0 / norm, u1 / norm) if rad else (1.0, 0.0)


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker 1971)."""
    p, a1, b1 = a * b, 134217729.0 * a, 134217729.0 * b
    ah, bh = a1 - (a1 - a), b1 - (b1 - b)
    return p, ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)


class _Qubit:
    """The qubit route: a 2x2 pair in closed form (Helstrom 1976).  With
    sigma = (tau_s 1 + s.S)/2 and rho = (tau_r 1 + r.S)/2 (S the Pauli
    vector), rho - t*sigma has the eigenvalues (a +- |v|)/2, a = tau_r -
    t tau_s and v = r - t s, so g(t) costs O(1); it is concave, and its
    maximum lies at t = 0, at a root of det(rho - t*sigma) = 0, or where g
    is stationary in the rank-one region."""

    def __init__(self, rho: DensityMatrix, sigma: DensityMatrix, floor: float, t_max: float):
        self.floor, self.t_max = floor, t_max  # the solver's zero rule EIG_FLOOR * (1 + t) and its T_MAX
        (r00, _), (r10, r11), (s00, _), (s10, s11) = rho.matrix.tolist() + sigma.matrix.tolist()
        self.pair = r00, r11, rx, ry, s00, s11, sx, sy = (
            r00.real, r11.real, r10.real, -r10.imag, s00.real, s11.real, s10.real, -s10.imag)
        self.norm = abs(r00) + abs(r11) + abs(rx) + abs(ry), abs(s00) + abs(s11) + abs(sx) + abs(sy)
        self.tau_r, self.tau_s = tau_r, tau_s = r00 + r11, s00 + s11
        # Bloch vectors, up to the sign of y in both, which no dot or cross product sees.
        r, s = (2.0 * rx, 2.0 * ry, r00 - r11), (2.0 * sx, 2.0 * sy, s00 - s11)
        self.dot, self.ss = r[0] * s[0] + r[1] * s[1] + r[2] * s[2], s[0] * s[0] + s[1] * s[1] + s[2] * s[2]
        self.cross = math.hypot(r[1] * s[2] - r[2] * s[1], r[2] * s[0] - r[0] * s[2], r[0] * s[1] - r[1] * s[0])
        # det sigma to the last bit, for t^2 det sigma at large t.
        self.det = math.fsum((*_two_product(s00, s11), *_two_product(-sx, sx), *_two_product(-sy, sy)))
        # 4 det(rho - t*sigma) = A t^2 - 2 B t + C, and B^2 - A C = |tau_s r - tau_r s|^2 - |r x s|^2.
        a, c = 4.0 * self.det, 4.0 * (r00 * r11 - rx * rx - ry * ry)
        self.coef = a, 2.0 * (r00 * s11 + r11 * s00) - 4.0 * (rx * sx + ry * sy), c
        diff = math.hypot(tau_s * r[0] - tau_r * s[0], tau_s * r[1] - tau_r * s[1], tau_s * r[2] - tau_r * s[2])
        q = self.coef[1] + math.copysign(math.sqrt(max(diff - self.cross, 0.0) * (diff + self.cross)), self.coef[1])
        self.roots = (0.0, q / a if a else -1.0, c / q if q else -1.0)

    @cached_property
    def spectrum(self):
        """((top, low), u): sigma's eigenvalues, low = det / top, and top's unit eigenvector."""
        rad, u = _top(*self.pair[4:])
        top = 0.5 * self.tau_s + rad
        return (top, self.det / top if top else 0.0), u

    def plus(self, t: float) -> tuple[float, float]:
        """Tr[(rho - t*sigma)_+] and a running bound on its rounding error
        (Higham 2002, ch. 3).  The eigenvalue of larger magnitude, big, comes
        from the entries p, w, x + iy of rho - t*sigma, the other as det / big,
        det from the entries (near-identical pairs) or from A, B and C (near
        rank-one sigma, large t), whichever has the smaller bound."""
        (r00, r11, rx, ry, s00, s11, sx, sy), (a, b, c), (nr, ns), u = self.pair, self.coef, self.norm, 2.0**-53
        p, w, x, y = r00 - t * s00, r11 - t * s11, rx - t * sx, ry - t * sy
        big = 0.5 * (p + w) + math.copysign(math.hypot(0.5 * (p - w), x, y), p + w)
        e = 2.0 * u * (nr + t * ns)  # bounds the rounding of each entry
        ebig = 4.0 * e + 3.0 * u * abs(big)
        entries = e * (abs(p) + abs(w) + 2.0 * abs(x) + 2.0 * abs(y)) + 3.0 * u * (abs(p * w) + x * x + y * y)
        coefs = 2.0 * u * nr * (4.0 * nr + 8.0 * t * ns) + 2.0 * u * t * t * abs(a)
        det, edet = (p * w - x * x - y * y, entries) if entries <= coefs else (0.25 * (c - t * (2 * b - t * a)), coefs)
        apart = abs(big) > 2.0 * ebig  # else both eigenvalues lie within 3 ebig of 0
        small = det / big if apart else 0.0
        esmall = (edet + abs(small) * ebig) / (abs(big) - ebig) + u * abs(small) if apart else 3.0 * ebig
        plus = max(big, 0.0) + max(small, 0.0)
        return plus, (ebig if big > -ebig else 0.0) + (esmall if small > -esmall else 0.0) + u * plus

    def tests(self, level: float, t: float):
        """(v, ends): the two tests around the level in the chain 1, P_n, 0
        (k = 0, 1, 2) at t, each as (alpha, beta, k); v = (m, n) is the
        eigenbasis of rho - t*sigma, or where that is a multiple of 1,
        sigma's, whose top spans the plus set just below t.  alpha(P_n) is
        summed in sigma's eigenbasis, free of cancellation."""
        (r00, r11, rx, ry, s00, s11, sx, sy), ((top, low), (e0, e1)) = self.pair, self.spectrum
        rad, (n0, n1) = _top(r00 - t * s00, r11 - t * s11, rx - t * sx, ry - t * sy)
        n0, n1 = (n0, n1) if rad > self.floor * (1.0 + t) else (e0, e1)
        z = n0.conjugate() * n1
        alpha = top * abs(e0.conjugate() * n0 + e1.conjugate() * n1) ** 2 + low * abs(e1 * n0 - e0 * n1) ** 2
        beta = r00 * abs(n1) ** 2 + r11 * abs(n0) ** 2 - 2.0 * (rx * z.real - ry * z.imag)
        if abs(alpha - level) <= 16.0 * 2.0**-53 * (math.sqrt(top * max(alpha, 0.0)) + abs(low) + alpha):
            # P_n attains the level to the rounding of its alpha, and a
            # mixture with 0 or 1 would cost beta / level times that.
            ends = [(max(alpha, level), beta, 1), (min(alpha, level), beta, 1)]
        else:
            k = 0 if self.tau_s <= level else 2 - int(alpha <= level)
            chain = [(self.tau_s, 0.0, 0), (alpha, beta, 1), (0.0, self.tau_r, 2)]
            ends = [chain[max(k - 1, 0)], chain[k]]
        return ((-n1.conjugate(), n0), (n0.conjugate(), n1)), ends

    def search(self, level: float):
        """The qubit route's one step, (lower, err, t, v, ends), with no search
        and no eigh, eigvalsh or Cholesky factor: g costs O(1), and its
        maximum lies at t = 0, at a root of det(rho - t*sigma) = 0 or at the
        stationary point of the rank-one region, for t <= t_max.  lower is the
        largest g there less err, a running bound on its rounding, and the
        ends are the tests at its t (``tests``); the upper bound is the beta
        of their mixture at the level plus err.  On a jump of alpha t is the
        root of det(rho - t*sigma) = 0 from float coefficients, to 2.9e-12
        relative (1.1e-12 at a mixed rho = sigma); beta is within 2.1e-15 of
        exact."""
        tau_r, tau_s, u = self.tau_r, self.tau_s, 2.0**-53
        # g is stationary in the rank-one region where s.v = c |v|, c = 2L - tau_s.
        room, c, stay = 4.0 * (level * (tau_s - level) - self.det), 2.0 * level - tau_s, -1.0
        if room > 0.0 and self.ss > 0.0:
            stay = (self.dot - math.copysign(abs(c) * self.cross / math.sqrt(room), c)) / self.ss
        points = []
        for t in (stay, *self.roots):
            if 0.0 <= t <= self.t_max:
                plus, err = self.plus(t)
                err += 4.0 * u * (1.0 + t * level + plus)
                points.append((1.0 - t * level - plus - err, err, t))
        # The test at the stationary point if it attains the bound to rounding,
        # else at the smallest t that does: g is flat between such points.
        lower = max(points)[0]
        _, err, t = min((p for p in points if p[0] >= lower - 2.0 * p[1]), key=lambda p: (p[2] != stay, p[2]))
        return (lower, err, t, *self.tests(level, t))

"""Reference values computed without the library's solver.

The optimal type-II error comes from the Lagrange dual of the
Neyman-Pearson problem instead of the bisection over ``alpha(P_+(t))``:

    1 - beta_opt(alpha0) = min_{t >= 0}  t * alpha0 + Tr[(rho - t sigma)_+]

The objective is convex in t, so a golden-section search over a doubled
bracket finds its minimum; it needs only eigenvalues (``numpy.linalg.eigvalsh``,
which the trace does not span), never eigenvectors.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def dual_beta(rho: np.ndarray, sigma: np.ndarray, alpha0: float, iterations: int = 90) -> float:
    """Minimal type-II error at type-I level alpha0, from the dual objective."""

    def f(t: float) -> float:
        w = np.linalg.eigvalsh(rho - t * sigma)
        return t * alpha0 + float(np.sum(w[w > 0.0]))

    hi = 1.0
    while hi < 2.0**60 and f(2.0 * hi) < f(hi):
        hi *= 2.0
    lo, hi = 0.0, 2.0 * hi
    a = hi - GOLDEN * (hi - lo)
    b = lo + GOLDEN * (hi - lo)
    fa, fb = f(a), f(b)
    best = min(f(lo), fa, fb)
    for _ in range(iterations):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - GOLDEN * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + GOLDEN * (hi - lo)
            fb = f(b)
        best = min(best, fa, fb)
    return 1.0 - best


def pure_overlap_sq(psi: np.ndarray, phi: np.ndarray) -> float:
    """|<psi|phi>|^2 of two unit vectors."""
    return float(abs(np.vdot(psi, phi)) ** 2)


def pure_trace_distance(overlap_sq: float) -> float:
    """Trace distance of two pure states, sqrt(1 - |<psi|phi>|^2)."""
    return math.sqrt(max(1.0 - overlap_sq, 0.0))

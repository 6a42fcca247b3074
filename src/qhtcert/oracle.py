"""Independent brute-force verifiers for the analytical machinery.

These searches approach optima from the feasible side, so they can certify
the library's closed forms and optimal tests on small instances:

* ``brute_force_min_beta``   random-search upper bound on the minimal type-II
                             error at a given type-I level; must never beat
                             the constructed optimal test.  It scores each
                             random test from two traces and two extreme
                             eigenvalues of its Hermitian draw, computed from
                             the draw's real entries without building it.
* ``boundary_radius_search`` angle search for the largest certified trace
                             distance around a pure qubit reference, using
                             only the generic robustness condition and its
                             margin (``helstrom._condition_margin``), at
                             d = 2 the converged dual g_A + g_B - 1;
                             ``_plane_boundary_radius`` steps on any such
                             margin its caller supplies.
* ``hoeffding_coverage``     empirical coverage of the confidence lower bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .classifier import Classifier, class_probabilities
from .certification import _philox, hoeffding_margin
from .errors import DimMismatch, RegimeTooLarge, _check_count
from .helstrom import _bracket_step, _condition_levels, _condition_margin
from .states import DensityMatrix, PureState

MAX_BRUTE_DIM = 4
# Draws per batch of ``brute_force_min_beta``: the Philox stream is read in
# batches of this size, so the value fixes which tests a seed searches.
BATCH = 20_000
# Columns per ``_traceless_charpoly`` call in ``_spectrum_ends``: it bounds the
# complex temporaries, not the Newton loop, which runs on the whole batch.
_CHARPOLY_BLOCK = 2_500
# Guard of the root solve in ``_spectrum_ends``: the rows it keeps stay within
# 6e-15 * max(1, |lambda|max) of eigvalsh on nearly repeated, shifted and scaled
# spectra (1.3e-14 at _ILL_SLOPE = 0.01); about 8 draws in 20 000 at d = 4 fail it.
_NEWTON_STEP = 1e-12
_ILL_SLOPE = 0.03
_NEWTON_ITERATIONS = 40


@dataclass(frozen=True)
class SearchReport:
    best_value: float
    argmin_description: dict
    samples_used: int
    seed: int


def _hermitian_stack(entries: np.ndarray) -> np.ndarray:
    """The Hermitian stack (n, d, d) with the entries of ``_draw_entries``'s layout."""
    d = math.isqrt(len(entries))
    rows, cols = np.triu_indices(d, 1)
    diag, re, im = np.split(entries, [d, d + len(rows)])
    h = np.zeros((entries.shape[1], d, d), complex)
    h.real[:, range(d), range(d)], h.real[:, rows, cols], h.real[:, cols, rows] = diag.T, re.T, re.T
    h.imag[:, rows, cols], h.imag[:, cols, rows] = im.T, -im.T
    return h


def _draw_entries(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Entries of n draws h distributed as the Hermitian part (g + g^H)/2 of a
    Ginibre matrix g = (a + ib)/sqrt(2): the rows h_ii, Re h_ij, Im h_ij
    (i < j, ``np.triu_indices`` order) of a (dim*dim, n) array.  These entries
    are independent Gaussians, h_ii ~ N(0, 1/2) and Re h_ij, Im h_ij ~
    N(0, 1/4) (the GUE entry law), so the rows are the next n*dim*dim normals
    of ``rng`` scaled in place by 1/sqrt(2) (diagonal) or 1/2 (the rest).
    """
    entries = rng.standard_normal((dim * dim, n))
    entries[:dim] *= 1.0 / np.sqrt(2.0)
    entries[dim:] *= 0.5
    return entries


def _traceless_charpoly(entries: np.ndarray) -> np.ndarray:
    """Rows: the shift c = Tr h / d and the coefficients e2, -e3 (d = 3) or
    e2, -e3, e4 (d = 4) of det(x*1 - A) = x^d + e2 x^(d-2) - e3 x^(d-3)
    (+ e4) for the traceless part A = h - c*1, in complex arithmetic on the
    ``_draw_entries`` rows: e2 = -Tr A^2 / 2, e3 the principal 3x3 minors'
    sum, e4 = det A.  A's last diagonal entry is minus the sum of the
    others, so rounding c moves every eigenvalue alike, by about one ulp of
    c, not as an x^(d-1) term in p that the roots' conditioning amplifies.
    """
    d = math.isqrt(len(entries))
    pairs = list(itertools.combinations(range(d), 2))
    off = entries[d:d + len(pairs)].astype(complex)
    off.imag = entries[d + len(pairs):]
    h = dict(zip(pairs, off))
    c = entries[:d].sum(axis=0) / d
    a = entries[:d] - c
    a[-1] = -a[:-1].sum(axis=0)
    sq = {ij: x.real**2 + x.imag**2 for ij, x in h.items()}
    trace_sq = np.einsum("in,in->n", a, a) + 2.0 * sum(sq.values())
    e3 = 0.0
    for i, j, k in itertools.combinations(range(d), 3):
        # 2 Re(h_ij h_jk conj(h_ik)) is the minor's cyclic term.
        e3 = e3 + (a[i] * (a[j] * a[k] - sq[j, k]) - a[j] * sq[i, k] - a[k] * sq[i, j]
                   + 2.0 * (h[i, j] * h[j, k] * h[i, k].conj()).real)
    coefficients = [-0.5 * trace_sq, -e3]
    if d == 4:
        h01, h02, h03, h12, h13, h23 = h.values()
        # Laplace over rows 0, 1.  Columns (0, 1) give (a0 a1 - |h01|^2) *
        # (a2 a3 - |h23|^2), columns (2, 3) |h02 h13 - h03 h12|^2, and each
        # other column pair -Re(p * conj(q)): p its minor and q the conjugate
        # of its complement's, both up to sign.  One sum, term by term, keeps
        # one (p, q) pair of complex rows alive at a time, not all four.
        x = h02 * h13 - h03 * h12
        coefficients.append(
            (a[0] * a[1] - sq[0, 1]) * (a[2] * a[3] - sq[2, 3]) + (x.real**2 + x.imag**2)
            - ((a[0] * h12 - h02 * h01.conj()) * (a[3] * h12 - h13 * h23.conj()).conj()).real
            - ((a[0] * h13 - h03 * h01.conj()) * (a[2] * h13 - h12 * h23).conj()).real
            - ((a[1] * h02 - h01 * h12) * (a[3] * h02 - h03 * h23.conj()).conj()).real
            - ((a[1] * h03 - h01 * h13) * (a[2] * h03 - h02 * h23).conj()).real
        )
    return np.stack([c, *coefficients])


def _spectrum_ends(entries: np.ndarray) -> np.ndarray:
    """Rows lo, hi: the extreme eigenvalues of each draw from its
    ``_draw_entries`` rows.  d = 1: h00; d = 2: mid -/+ hypot(|h01|,
    (h00 - h11)/2).  d = 3, 4: c + the extreme roots of the real-rooted
    characteristic polynomial p of A (``_traceless_charpoly``), by Newton
    steps inward from -/+ bound = sqrt((d - 1)/d * Tr A^2) (Samuelson), so
    lo <= lambda_min and hi >= lambda_max up to roundoff.  A row whose last
    step is above ``_NEWTON_STEP * bound`` or whose |p'| < ``_ILL_SLOPE *
    bound**(d - 1)`` (a nearly repeated extreme eigenvalue, which roundoff in
    p moves by 1.5e-16 * max|lambda| * bound**(d - 1) / |p'|) goes to eigvalsh.
    """
    d = math.isqrt(len(entries))
    if d == 1:
        return entries[[0, 0]]
    if d == 2:
        h00, h11, re01, im01 = entries
        radius = np.hypot(np.hypot(re01, im01), (h00 - h11) / 2.0)
        return (h00 + h11) / 2.0 + np.outer([-1.0, 1.0], radius)
    blocks = range(0, entries.shape[1], _CHARPOLY_BLOCK)
    c, e2, *rest = np.concatenate([_traceless_charpoly(entries[:, i:i + _CHARPOLY_BLOCK]) for i in blocks], axis=1)
    bound = np.sqrt(-2.0 * (d - 1) / d * e2)
    x = np.stack([-bound, bound])
    small_step, small_slope = _NEWTON_STEP * bound, _ILL_SLOPE * bound ** (d - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_ITERATIONS):
            p, slope = x * x + e2, 2.0 * x
            for coefficient in rest:
                slope = slope * x + p
                p = p * x + coefficient
            step = p / slope
            x -= step
            steep = np.abs(slope) > small_slope  # False on the 0/0 of a scalar draw
            settled = steep & (np.abs(step) <= small_step)
            if np.all(settled | ~steep):
                break
    ends = x + c
    fallback = ~settled.all(axis=0)
    if fallback.any():
        ends[:, fallback] = np.linalg.eigvalsh(_hermitian_stack(entries[:, fallback]))[:, [0, -1]].T
    return ends


def _adjust(m: np.ndarray, unit: np.ndarray, alpha: np.ndarray, alpha_target: float) -> np.ndarray:
    """Move a test's type-I error alpha to the target: scale the test down
    (factor < 1) when alpha is above it, or mix it toward the identity
    (weight s > 0) when alpha is below it, M -> (1 - s)*factor*M + s*1.

    The step is affine, so it acts alike on a stack of operators M (``unit``
    the identity) and on traces of M (``unit`` the same traces of 1); alpha
    broadcasts against ``m``.
    """
    above = (alpha > alpha_target) & (alpha > 0.0)
    factor = np.divide(alpha_target, alpha, out=np.ones_like(alpha), where=above)
    s = np.where(alpha < alpha_target, (alpha_target - alpha) / (1.0 - alpha), 0.0)
    return (1.0 - s) * (m * factor) + s * unit


def brute_force_min_beta(
    sigma: DensityMatrix,
    rho: DensityMatrix,
    alpha0: float,
    samples: int = 100_000,
    seed: int = 0,
) -> SearchReport:
    """Smallest type-II error found among random feasible tests.

    Searches the tests M = (h - lo*1)/(hi - lo), h with the law of the
    Hermitian part of a Ginibre matrix (its d*d real entries drawn directly
    by ``_draw_entries``) and extreme eigenvalues lo, hi, each scaled down or
    mixed toward the identity (``_adjust``) to alpha(M) in [alpha0 - 1e-3, alpha0],
    so the result upper-bounds the true infimum and, by optimality, can never
    fall below the constructed test's beta (up to roundoff).

    alpha(M) and Tr[rho M] are affine in M = c*h + e*1, with scalars c, e
    fixed by the extreme eigenvalues lo, hi of the draw h, so the scale and
    mix steps act on four numbers per sample, all from h's real entries
    (``_draw_entries``): Tr[sigma h], Tr[rho h] as einsum dot products, which
    BLAS threading cannot change, and lo, hi from ``_spectrum_ends``.
    """
    if sigma.dim != rho.dim:
        raise DimMismatch(f"dimensions differ: {sigma.dim} vs {rho.dim}")
    if sigma.dim > MAX_BRUTE_DIM:
        raise RegimeTooLarge(f"brute force limited to d <= {MAX_BRUTE_DIM}, got {sigma.dim}")
    _check_count(samples, 1_000, "need at least 10^3 samples, got samples={}")
    if not 0.0 <= alpha0 <= 1.0:
        raise ValueError("alpha0 must lie in [0, 1]")
    target = max(alpha0 - 1e-6, alpha0 * (1.0 - 1e-3))
    rng = _philox(seed)
    pair = np.stack([sigma.matrix, rho.matrix])
    unit_traces = np.real(np.einsum("kii->k", pair))[:, None]
    # Tr[X h] = sum_m e_m Tr[X B_m] over the basis B of ``_draw_entries``.
    weights = np.real(np.einsum("kij,mji->km", pair, _hermitian_stack(np.eye(sigma.dim**2))))
    found = []
    for start in range(0, samples, BATCH):
        entries = _draw_entries(sigma.dim, min(BATCH, samples - start), rng)
        lo, hi = _spectrum_ends(entries)
        span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
        # Rows Tr[sigma M], Tr[rho M] for M = (h - lo*1)/span, then adjusted.
        traces = (np.einsum("km,mn->kn", weights, entries) - lo * unit_traces) / span
        alpha, accept = _adjust(traces, unit_traces, traces[0], target)
        beta = 1.0 - accept
        i = int(np.argmin(beta))
        found.append((float(beta[i]), float(alpha[i])))
    best, best_alpha = min(found, key=lambda batch_best: batch_best[0])
    return SearchReport(best_value=best, samples_used=samples, seed=seed,
                        argmin_description={"alpha": best_alpha, "alpha_target": target, "family": "ginibre-mapped"})


def _plane_boundary_radius(margin, p_a: float, p_b: float, steps: int) -> float:
    """Largest trace distance from the benign state that ``certify_condition`` certifies.

    ``margin(theta)`` is the caller's dual condition margin g_A + g_B - 1 at
    the pure adversarial state at angle theta from the pure benign one, at
    trace distance sin(theta/2).  Returns the boundary sin(theta*/2) for
    theta* in [0, pi], or 1.0 when even the orthogonal state is certified.

    The bracket [lo, hi] keeps the condition holding at lo and failing at hi.
    Each step is a regula-falsi (secant) guess from the margins at the two
    ends (at theta = 0, where the states coincide, the margin is
    1 - level_A - level_B without a solve), safeguarded by the threshold
    search's bracket step (``_bracket_step``): it bisects when the step
    would move farther from the newest angle than half the step taken two
    steps earlier.  The search stops at bracket width pi * 2**-steps, which
    bisection would reach after ``steps`` steps, when no float lies strictly
    inside the bracket (its midpoint is one of its ends), or at an angle
    whose margin is exactly 0, which is the boundary.
    """
    level_a, level_b = _condition_levels(p_a, p_b)
    lo, hi = 0.0, math.pi
    at_lo, at_hi = 1.0 - level_a - level_b, margin(hi)
    if at_hi > 0.0:
        return 1.0
    tol = math.ldexp(math.pi, -steps)
    lengths, newest = [math.inf, math.inf], hi
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        guess = lo + (hi - lo) * at_lo / (at_lo - at_hi) if at_lo > at_hi else None
        newest = _bracket_step(lo, hi, guess, 0.5 * tol, newest, lengths)
        value = margin(newest)
        if value == 0.0:
            return math.sin(newest / 2.0)
        if value > 0.0:
            lo, at_lo = newest, value
        else:
            hi, at_hi = newest, value
    theta = 0.5 * (lo + hi)
    return math.sin(theta / 2.0)


def boundary_radius_search(
    p_a: float,
    p_b: float,
    reference: PureState,
    samples: int = 60,
    seed: int = 0,
) -> float:
    """Largest certified trace distance around a pure qubit reference state.

    Searches the angle theta between the reference and pure states
    cos(theta/2)|ref> + sin(theta/2) e^{i phi}|ref_perp>, drawing a fresh
    random phi at every evaluation (the boundary is phi-independent for pure
    pairs).  The generic robustness condition keeps the bracket, and its
    dual margin g_A + g_B - 1 (Lagrange-dual lower bounds g on the two
    optimal type-II errors) guides plain regula-falsi steps inside it
    (``_plane_boundary_radius``).
    The search stops at angle bracket width pi * 2**-samples, or when no
    float lies strictly inside the bracket.  Returns the boundary trace
    distance sin(theta*/2).
    """
    if reference.dim != 2:
        raise ValueError("reference must be a qubit state")
    _check_count(samples, 1, "need samples >= 1, got samples={}")
    rng = _philox(seed)
    sigma, ref = reference.density(), reference.amplitudes
    perp = np.array([-np.conj(ref[1]), np.conj(ref[0])])

    def margin(theta: float) -> float:
        tilt = np.sin(theta / 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return _condition_margin(sigma, PureState(np.cos(theta / 2.0) * ref + tilt * perp).density(), p_a, p_b)

    return _plane_boundary_radius(margin, p_a, p_b, samples)


def hoeffding_coverage(
    cl: Classifier,
    sigma: DensityMatrix,
    trials: int,
    n_shots: int,
    epsilon: float,
    seed: int = 0,
) -> float:
    """Fraction of sampling runs whose lower bound does not overshoot the
    truth, i.e. y_true[k_hat] >= pA_lower.  Should come out >= 1 - epsilon."""
    _check_count(trials, 1_000, "need at least 10^3 trials, got trials={}")
    margin = hoeffding_margin(n_shots, epsilon)
    probs = class_probabilities(cl, sigma)
    counts = _philox(seed).multinomial(n_shots, probs / probs.sum(), size=trials)
    k_hat = np.argmax(counts, axis=1)
    lower = counts[np.arange(trials), k_hat] / n_shots - margin
    return float(np.mean(probs[k_hat] >= lower))

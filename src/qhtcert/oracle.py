"""Independent brute-force verifiers for the analytical machinery.

These searches approach optima from the feasible side, so they can certify
the library's closed forms and optimal tests on small instances:

* ``brute_force_min_beta``   random-search upper bound on the minimal type-II
                             error at a given type-I level; must never beat
                             the constructed optimal test.  It scores each
                             random test from two traces and two extreme
                             eigenvalues of its Hermitian draw, computed from
                             the draw's real entries without building it;
                             ``sample_test_operators`` builds the same tests.
* ``boundary_radius_search`` angle search for the largest certified trace
                             distance around a pure qubit reference, using
                             only the generic robustness condition and its
                             dual margin g_A + g_B - 1; the reference for
                             ``radius_depol_qht`` runs it at any dimension.
* ``hoeffding_coverage``     empirical coverage of the confidence lower bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .classifier import Classifier, class_probabilities
from .certification import hoeffding_margin
from .errors import DimMismatch, InvalidProbabilityOrder, OutOfRegime, RegimeTooLarge
from .helstrom import _plane_boundary_radius
from .states import DensityMatrix, PureState

MAX_BRUTE_DIM = 4
# Guard of the root solve in ``_spectrum_ends``: the rows it keeps stay within
# 6e-15 * max(1, |lambda|max) of eigvalsh on nearly repeated, shifted and scaled
# spectra (1.3e-14 at _ILL_SLOPE = 0.01); about 10 draws in 20 000 at d = 4 fail it.
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
    """Entries e of the Hermitian parts h of n Ginibre matrices (a + ib)/sqrt(2),
    a then b the next 2*n*dim*dim normals of ``rng``: the rows h_ii, Re h_ij,
    Im h_ij (i < j, ``np.triu_indices`` order) of a (dim*dim, n) array.  With
    the basis B = ``_hermitian_stack(1)``, e_m = <B_m, h>/|B_m|^2 is a product
    of transposed views of a, b with 0, +-1/2 or 1: one rounding of at most two
    exact products in any summation order: the bits of (a + a^T)/2, (b - b^T)/2.
    """
    basis = _hermitian_stack(np.eye(dim * dim)).reshape(dim * dim, -1)
    select, real_rows = basis / np.sum(np.abs(basis) ** 2, axis=1, keepdims=True), dim * (dim + 1) // 2
    normals = rng.standard_normal((2, n, dim * dim))
    a, b = np.multiply(normals, 1.0 / np.sqrt(2.0), out=normals).transpose(0, 2, 1)  # in place: no second copy
    return np.concatenate([select.real[:real_rows] @ a, select.imag[real_rows:] @ b])


def _traceless_charpoly(entries: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Shift c = Tr h / d and the coefficients [e2, -e3] (d = 3) or
    [e2, -e3, e4] (d = 4) of det(x*1 - A) = x^d + e2 x^(d-2) - e3 x^(d-3)
    (+ e4) for the traceless part A = h - c*1, in real arithmetic on the
    ``_draw_entries`` rows: e2 = -Tr A^2 / 2, e3 the principal 3x3 minors'
    sum, e4 = det A.  A's last diagonal entry is minus the sum of the
    others, so rounding c moves every eigenvalue alike, by about one ulp of
    c, not as an x^(d-1) term in p that the roots' conditioning amplifies.
    """
    d = math.isqrt(len(entries))
    pairs = list(itertools.combinations(range(d), 2))
    re, im = dict(zip(pairs, entries[d:d + len(pairs)])), dict(zip(pairs, entries[d + len(pairs):]))
    c = entries[:d].sum(axis=0) / d
    a = entries[:d] - c
    a[-1] = -a[:-1].sum(axis=0)
    sq = {ij: re[ij] ** 2 + im[ij] ** 2 for ij in pairs}
    trace_sq = np.einsum("in,in->n", a, a) + 2.0 * sum(sq.values())
    e3 = 0.0
    for i, j, k in itertools.combinations(range(d), 3):
        # Re(h_ij h_jk conj(h_ik)) is the minor's cyclic term.
        loop_re, loop_im = re[i, j] * re[j, k] - im[i, j] * im[j, k], re[i, j] * im[j, k] + im[i, j] * re[j, k]
        e3 = e3 + (a[i] * (a[j] * a[k] - sq[j, k]) - a[j] * sq[i, k] - a[k] * sq[i, j]
                   + 2.0 * (loop_re * re[i, k] + loop_im * im[i, k]))
    coefficients = [-0.5 * trace_sq, -e3]
    if d == 4:
        def entry(i, j):  # (Re, Im) of A_ij: A_ii is real and A_ji = conj(A_ij)
            return (a[i], 0.0) if i == j else (re[i, j], im[i, j]) if i < j else (re[j, i], -im[j, i])

        def minor(r, i, j):  # A_ri A_(r+1)j - A_rj A_(r+1)i
            (p, q), (s, t), (u, v), (w, x) = entry(r, i), entry(r + 1, j), entry(r, j), entry(r + 1, i)
            return p * s - q * t - (u * w - v * x), p * t + q * s - (u * x + v * w)

        e4 = 0.0  # Laplace over rows 0, 1: minors of columns (i, j) and their complements
        for i, j in pairs:
            k, l = (m for m in range(4) if m not in (i, j))
            (p, q), (r, t) = minor(0, i, j), minor(2, k, l)  # sign (-1)^(1 + i + j)
            e4 = e4 + (-1) ** (1 + i + j) * (p * r - q * t)
        coefficients.append(e4)
    return c, coefficients


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
    c, (e2, *rest) = _traceless_charpoly(entries)
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


def sample_test_operators(
    dim: int, n: int, alpha_target: float, sigma: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random operators 0 <= M <= 1 with Tr[sigma M] = alpha_target.

    Assembles Ginibre-style Hermitian matrices h from ``_draw_entries``, maps
    the spectrum affinely onto [0, 1] as M = (h - lo*1)/(hi - lo), then makes
    one scalar adjustment: scale down, or mix toward the identity, until the
    type-I error hits the target.  Covers extreme and interior operators
    without favoring projectors.  ``brute_force_min_beta`` searches the same
    tests without building them.  Raises ``ValueError`` for dim < 1, n < 1 or
    a target outside [0, 1] (NaN included) and ``DimMismatch`` when sigma is
    not dim x dim.
    """
    if not 0.0 <= alpha_target <= 1.0:
        raise ValueError(f"alpha_target must lie in [0, 1], got {alpha_target}")
    if dim < 1 or n < 1:
        raise ValueError(f"need dim >= 1 and n >= 1, got dim={dim}, n={n}")
    if np.shape(sigma) != (dim, dim):
        raise DimMismatch(f"sigma must be {dim}x{dim}, got shape {np.shape(sigma)}")
    h = _hermitian_stack(_draw_entries(dim, n, rng))
    w = np.linalg.eigvalsh(h)[:, :, None]
    lo, span = w[:, :1], w[:, -1:] - w[:, :1]
    eye = np.eye(dim)
    m = (h - lo * eye) / np.where(span < 1e-12, 1.0, span)
    return _adjust(m, eye, np.real(np.einsum("ij,nji->n", sigma, m))[:, None, None], alpha_target)


def brute_force_min_beta(
    sigma: DensityMatrix,
    rho: DensityMatrix,
    alpha0: float,
    samples: int = 100_000,
    seed: int = 0,
    batch: int = 20_000,
) -> SearchReport:
    """Smallest type-II error found among random feasible tests.

    Searches the tests of ``sample_test_operators`` (same draws from the same
    Philox stream, same batches, same mapping), aimed at alpha(M) in
    [alpha0 - 1e-3, alpha0], so the result upper-bounds the true infimum and,
    by optimality, can never fall below the constructed test's beta (up to
    roundoff).

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
    if samples < 1_000:
        raise ValueError(f"need at least 10^3 samples, got samples={samples}")
    if batch < 1:
        raise ValueError(f"need batch >= 1, got batch={batch}")
    if not 0.0 <= alpha0 <= 1.0:
        raise ValueError("alpha0 must lie in [0, 1]")
    target = max(alpha0 - 1e-6, alpha0 * (1.0 - 1e-3))
    rng = np.random.Generator(np.random.Philox(seed))
    pair = np.stack([sigma.matrix, rho.matrix])
    unit_traces = np.real(np.einsum("kii->k", pair))[:, None]
    # Tr[X h] = sum_m e_m Tr[X B_m] over the basis B of ``_draw_entries``.
    weights = np.real(np.einsum("kij,mji->km", pair, _hermitian_stack(np.eye(sigma.dim**2))))
    found = []
    for start in range(0, samples, batch):
        entries = _draw_entries(sigma.dim, min(batch, samples - start), rng)
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
    optimal type-II errors) guides regula-falsi steps inside it.
    The search stops at angle bracket width pi * 2**-samples, or when no
    float lies strictly inside the bracket.  Returns the boundary trace
    distance sin(theta*/2).
    """
    if not (0.0 <= p_b < p_a <= 1.0):
        raise InvalidProbabilityOrder(f"need 0 <= pB < pA <= 1, got pA={p_a}, pB={p_b}")
    if reference.dim != 2:
        raise ValueError("reference must be a qubit state")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got samples={samples}")
    rng = np.random.Generator(np.random.Philox(seed))
    ref = reference.amplitudes
    perp = np.array([-np.conj(ref[1]), np.conj(ref[0])])
    return _plane_boundary_radius(reference.density(), ref, perp, p_a, p_b, samples, rng=rng)


def _smoothed_boundary_generic(sigma: DensityMatrix, p: float, p_a: float, steps: int = 40) -> float:
    """Reference search for ``bounds.radius_depol_qht`` at sigma's dimension.

    Searches the angle between the pure state sigma and a pure state in a
    fixed 2-plane, both depolarized with parameter p, by margin-guided steps
    of the generic condition (``helstrom._plane_boundary_radius``) down to
    bracket width pi * 2**-steps; for pure pairs the condition depends only
    on the overlap, so the result is the trace distance (between unsmoothed
    states) below which certification holds.  ``OutOfRegime`` below d = 2.
    """
    d = sigma.dim
    if d < 2:
        raise OutOfRegime(f"requires dimension d >= 2, got {d}")
    psi = PureState.from_density(sigma).amplitudes
    # Orthonormal partner spanning the 2-plane: the basis vector psi overlaps least, minus its psi part.
    k = int(np.argmin(np.abs(psi)))
    partner = np.eye(d)[k] - np.conj(psi[k]) * psi
    return _plane_boundary_radius(sigma, psi, partner / np.linalg.norm(partner), p_a, 1.0 - p_a, steps, p)


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
    if trials < 1_000:
        raise ValueError("need at least 10^3 trials")
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    probs = class_probabilities(cl, sigma)
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.multinomial(n_shots, probs / probs.sum(), size=trials)
    k_hat = np.argmax(counts, axis=1)
    margin = hoeffding_margin(n_shots, epsilon)
    lower = counts[np.arange(trials), k_hat] / n_shots - margin
    return float(np.mean(probs[k_hat] >= lower))

"""Independent brute-force verifiers for the analytical machinery.

These searches approach optima from the feasible side, so they can certify
the library's closed forms and optimal tests on small instances:

* ``brute_force_min_beta``   random-search upper bound on the minimal type-II
                             error at a given type-I level; must never beat
                             the constructed optimal test.  It scores each
                             random test from four numbers of its Hermitian
                             draw (two traces, two extreme eigenvalues) and
                             builds no test operator; ``sample_test_operators``
                             builds the same tests as operators.  The extreme
                             eigenvalues are a closed form at d = 2 and the
                             extreme roots of the characteristic polynomial
                             at d = 3, 4, with ``eigvalsh`` for the few rows
                             whose root is ill-conditioned.
* ``boundary_radius_search`` angle search for the largest certified trace
                             distance around a pure qubit reference, using
                             only the generic robustness condition and its
                             dual margin g_A + g_B - 1; the reference for
                             ``radius_depol_qht`` runs it at any dimension.
* ``hoeffding_coverage``     empirical coverage of the confidence lower bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .classifier import Classifier, class_probabilities
from .certification import hoeffding_margin
from .errors import DimMismatch, InvalidProbabilityOrder, RegimeTooLarge
from .helstrom import _plane_boundary_radius
from .states import DensityMatrix, PureState

MAX_BRUTE_DIM = 4
# Guard of the extreme-root solve in ``_spectrum_ends``.  At _ILL_SLOPE = 0.03
# the rows it keeps stay within 6e-15 * max(1, |lambda|max) of eigvalsh on
# nearly repeated, shifted and scaled spectra (1.3e-14 at 0.01), and about 10
# Ginibre draws in 20 000 at d = 4, 1 at d = 3, go to eigvalsh.
_NEWTON_STEP = 1e-12
_ILL_SLOPE = 0.03
_NEWTON_ITERATIONS = 40


@dataclass(frozen=True)
class SearchReport:
    best_value: float
    argmin_description: dict
    samples_used: int
    seed: int


def _draw_hermitian(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian parts h = (g + g^H)/2 of n complex Ginibre matrices
    g = (a + ib)/sqrt(2), shape (n, dim, dim).  a and b are the next
    2*n*dim*dim standard normals of ``rng``, a first; h is assembled from
    its real and imaginary parts, which is cheaper than complex arithmetic.
    """
    a, b = rng.standard_normal((2, n, dim, dim)) * (1.0 / np.sqrt(2.0))
    h = np.empty((n, dim, dim), complex)
    h.real, h.imag = (a + a.transpose(0, 2, 1)) * 0.5, (b - b.transpose(0, 2, 1)) * 0.5
    return h


def _traceless_charpoly(h: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Shift c = Tr h / d and the coefficients [e2, -e3] (d = 3) or
    [e2, -e3, e4] (d = 4) of det(x*1 - A) = x^d + e2 x^(d-2) - e3 x^(d-3)
    (+ e4) for the traceless part A = h - c*1 of each matrix of a Hermitian
    stack.  e2 = -Tr A^2 / 2 and e3 are principal-minor sums and e4 = det A
    by Laplace expansion over the 2x2 minors of rows 0, 1; all are built
    from per-entry arrays of length n, with no (n, d, d) temporary.

    A's last diagonal entry is minus the sum of the others, so A is
    traceless to roundoff in its own scale: the rounding of c then moves
    every eigenvalue alike, by about one ulp of c, instead of entering p as
    an x^(d-1) term that the conditioning of the extreme roots amplifies.
    """
    d = h.shape[-1]
    rows, cols = np.triu_indices(d, 1)
    b = dict(zip(zip(rows.tolist(), cols.tolist()), h.transpose(1, 2, 0)[rows, cols]))
    diag = np.einsum("nii->in", h).real
    c = diag.sum(axis=0) / d
    a = diag - c
    a[-1] = -a[:-1].sum(axis=0)
    sq = {ij: bij.real**2 + bij.imag**2 for ij, bij in b.items()}
    trace_sq = np.einsum("in,in->n", a, a) + 2.0 * sum(sq.values())
    e3 = 0.0
    for i, j, k in itertools.combinations(range(d), 3):
        loop = b[i, j] * b[j, k]  # Re(b_ij b_jk conj(b_ik)) is the minor's cyclic term
        e3 = e3 + (a[i] * (a[j] * a[k] - sq[j, k]) - a[j] * sq[i, k] - a[k] * sq[i, j]
                   + 2.0 * (loop.real * b[i, k].real + loop.imag * b[i, k].imag))
    coefficients = [-0.5 * trace_sq, -e3]
    if d == 4:
        def entry(i, j):
            return a[i] if i == j else b[i, j] if i < j else b[j, i].conj()

        def minor(r, i, j):
            return entry(r, i) * entry(r + 1, j) - entry(r, j) * entry(r + 1, i)

        e4 = 0.0
        for i, j in itertools.combinations(range(4), 2):
            k, l = (m for m in range(4) if m not in (i, j))
            e4 = e4 + (-1) ** (1 + i + j) * (minor(0, i, j) * minor(2, k, l)).real
        coefficients.append(e4)
    return c, coefficients


def _spectrum_ends(h: np.ndarray) -> np.ndarray:
    """Rows lo, hi: the smallest and largest eigenvalue of each matrix in a
    Hermitian stack.  At d = 1 both are h00; at d = 2 they are
    mid -/+ hypot(|h01|, (h00 - h11)/2).

    At d = 3, 4 they are c + the extreme roots of the characteristic
    polynomial p of the traceless part A (``_traceless_charpoly``).  Newton
    steps start from -/+ bound, bound = sqrt((d - 1)/d * Tr A^2) (Samuelson:
    every eigenvalue lies inside).  p is real-rooted, so Newton started
    outside the roots moves monotonically toward the extreme root: lo stays
    <= lambda_min and hi >= lambda_max up to roundoff.  A row goes to
    ``eigvalsh`` when its last step is above ``_NEWTON_STEP * bound`` or
    |p'| < ``_ILL_SLOPE * bound**(d - 1)``: a repeated or nearly repeated
    extreme eigenvalue, whose root the roundoff in p moves by about
    1.5e-16 * max|lambda| * bound**(d - 1) / |p'|.
    """
    d = h.shape[-1]
    if d == 1:
        return np.stack([h[:, 0, 0].real, h[:, 0, 0].real])
    if d == 2:
        radius = np.hypot(np.abs(h[:, 0, 1]), (h[:, 0, 0].real - h[:, 1, 1].real) / 2.0)
        return (h[:, 0, 0].real + h[:, 1, 1].real) / 2.0 + np.outer([-1.0, 1.0], radius)
    c, (e2, *rest) = _traceless_charpoly(h)
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
        ends[:, fallback] = np.linalg.eigvalsh(h[fallback])[:, [0, -1]].T
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

    Draws Ginibre-style Hermitian matrices h, maps the spectrum affinely onto
    [0, 1] as M = (h - lo*1)/(hi - lo), then makes one scalar adjustment:
    scale down, or mix toward the identity, until the type-I error hits the
    target.  Covers extreme and interior operators without favoring
    projectors.  ``brute_force_min_beta`` searches the same tests, drawn from
    the same generator, without building them.  Raises ``ValueError`` for a
    target outside [0, 1] (NaN included) and ``DimMismatch`` when sigma is
    not dim x dim.
    """
    if not 0.0 <= alpha_target <= 1.0:
        raise ValueError(f"alpha_target must lie in [0, 1], got {alpha_target}")
    if np.shape(sigma) != (dim, dim):
        raise DimMismatch(f"sigma must be {dim}x{dim}, got shape {np.shape(sigma)}")
    h = _draw_hermitian(dim, n, rng)
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

    alpha(M) and Tr[rho M] are affine in M, and M = c*h + e*1 for scalars c,
    e fixed by the extreme eigenvalues lo, hi of the draw h.  So each sample
    needs only four numbers, Tr[sigma h], Tr[rho h], lo and hi, and the
    scale and mix steps act on them; no test operator is built.  lo and hi
    come from ``_spectrum_ends``: a closed form at d = 2, and Newton roots of
    the characteristic polynomial at d = 3, 4, within 6e-15 relative of
    ``eigvalsh``, which takes the rows whose root is ill-conditioned.  The
    traces are einsum sums, so the result does not depend on BLAS threading.
    """
    if sigma.dim != rho.dim:
        raise DimMismatch(f"dimensions differ: {sigma.dim} vs {rho.dim}")
    if sigma.dim > MAX_BRUTE_DIM:
        raise RegimeTooLarge(f"brute force limited to d <= {MAX_BRUTE_DIM}, got {sigma.dim}")
    if samples < 1_000:
        raise ValueError("need at least 10^3 samples")
    if batch < 1:
        raise ValueError(f"need batch >= 1, got batch={batch}")
    if not 0.0 <= alpha0 <= 1.0:
        raise ValueError("alpha0 must lie in [0, 1]")
    target = max(alpha0 - 1e-6, alpha0 * (1.0 - 1e-3))
    rng = np.random.Generator(np.random.Philox(seed))
    pair = np.stack([sigma.matrix, rho.matrix])
    unit_traces = np.real(np.einsum("kii->k", pair))[:, None]
    found = []
    for start in range(0, samples, batch):
        h = _draw_hermitian(sigma.dim, min(batch, samples - start), rng)
        lo, hi = _spectrum_ends(h)
        span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
        # Rows Tr[sigma M], Tr[rho M] for M = (h - lo*1)/span, then adjusted.
        traces = (np.real(np.einsum("kij,nji->kn", pair, h)) - lo * unit_traces) / span
        alpha, accept = _adjust(traces, unit_traces, traces[0], target)
        beta = 1.0 - accept
        i = int(np.argmin(beta))
        found.append((float(beta[i]), float(alpha[i])))
    best, best_alpha = min(found, key=lambda batch_best: batch_best[0])
    return SearchReport(
        best_value=best,
        argmin_description={"alpha": best_alpha, "alpha_target": target, "family": "ginibre-mapped"},
        samples_used=samples,
        seed=seed,
    )


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
    states) below which certification holds.
    """
    psi = PureState.from_density(sigma)
    d = sigma.dim
    # Orthonormal partner spanning the 2-plane.
    k = int(np.argmin(np.abs(psi.amplitudes)))
    e = np.zeros(d, dtype=np.complex128)
    e[k] = 1.0
    partner = e - np.vdot(psi.amplitudes, e) * psi.amplitudes
    partner = partner / np.linalg.norm(partner)
    return _plane_boundary_radius(sigma, psi.amplitudes, partner, p_a, 1.0 - p_a, steps, p)


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

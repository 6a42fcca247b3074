"""Independent brute-force verifiers for the analytical machinery.

These searches approach optima from the feasible side, so they can certify
the library's closed forms and optimal tests on small instances:

* ``brute_force_min_beta``   random-search upper bound on the minimal type-II
                             error at a given type-I level; must never beat
                             the constructed optimal test.  It scores each
                             random test from four numbers of its Hermitian
                             draw (two traces, two extreme eigenvalues) and
                             builds no test operator; ``sample_test_operators``
                             builds the same tests as operators.
* ``boundary_radius_search`` angle search for the largest certified trace
                             distance around a pure qubit reference, using
                             only the generic robustness condition and its
                             margin beta(M_A) + beta(M_B) - 1.
* ``hoeffding_coverage``     empirical coverage of the confidence lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import Classifier, class_probabilities
from .certification import hoeffding_margin
from .errors import DimMismatch, InvalidProbabilityOrder, RegimeTooLarge
from .helstrom import _plane_boundary_radius
from .states import DensityMatrix, PureState

MAX_BRUTE_DIM = 4


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


def _spectrum_ends(h: np.ndarray) -> np.ndarray:
    """Rows lo, hi: the smallest and largest eigenvalue of each matrix in a
    Hermitian stack.  At d = 2 they are mid -/+ hypot(|h01|, (h00 - h11)/2);
    otherwise they are read off ``eigvalsh``."""
    if h.shape[-1] != 2:
        return np.linalg.eigvalsh(h)[:, [0, -1]].T
    radius = np.hypot(np.abs(h[:, 0, 1]), (h[:, 0, 0].real - h[:, 1, 1].real) / 2.0)
    return (h[:, 0, 0].real + h[:, 1, 1].real) / 2.0 + np.outer([-1.0, 1.0], radius)


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
    the same generator, without building them.
    """
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
    scale and mix steps act on them; no test operator is built.  The traces
    are einsum sums, so the result does not depend on BLAS threading.
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
    margin beta(M_A) + beta(M_B) - 1 guides regula-falsi steps inside it.
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

"""Independent brute-force verifiers for the analytical machinery.

These searches approach optima from the feasible side, so they can certify
the library's closed forms and optimal tests on small instances:

* ``brute_force_min_beta``   random-search upper bound on the minimal type-II
                             error at a given type-I level; must never beat
                             the constructed optimal test.
* ``boundary_radius_search`` angle search for the largest certified trace
                             distance around a pure qubit reference, using
                             only the generic robustness condition and its
                             margin beta(M_A) + beta(M_B) - 1.
* ``hoeffding_coverage``     empirical coverage of the confidence lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import Classifier, class_probabilities
from .certification import hoeffding_margin
from .errors import InvalidProbabilityOrder, RegimeTooLarge
from .helstrom import _plane_boundary_radius
from .states import DensityMatrix, PureState

MAX_BRUTE_DIM = 4


@dataclass(frozen=True)
class SearchReport:
    best_value: float
    argmin_description: dict
    samples_used: int
    seed: int


def sample_test_operators(
    dim: int, n: int, alpha_target: float, sigma: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random operators 0 <= M <= 1 with Tr[sigma M] = alpha_target.

    Draws Ginibre-style Hermitian matrices, maps the spectrum affinely onto
    [0, 1], then makes one scalar adjustment: scale down, or mix toward the
    identity, until the type-I error hits the target.  Covers extreme and
    interior operators without favoring projectors.
    """
    g = (rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))) / np.sqrt(2.0)
    h = (g + g.conj().transpose(0, 2, 1)) / 2.0
    w = np.linalg.eigvalsh(h)
    lo = w[:, 0][:, None, None]
    span = (w[:, -1] - w[:, 0])[:, None, None]
    span = np.where(span < 1e-12, 1.0, span)
    eye = np.eye(dim)
    m = (h - lo * eye) / span
    alpha = np.real(np.einsum("ij,nji->n", sigma, m))
    scale_down = alpha > alpha_target
    factor = np.where(alpha > 0.0, alpha_target / np.where(alpha > 0.0, alpha, 1.0), 1.0)
    m = np.where(scale_down[:, None, None], m * factor[:, None, None], m)
    mix = (~scale_down) & (alpha < alpha_target)
    s = np.where(mix, (alpha_target - alpha) / (1.0 - alpha), 0.0)[:, None, None]
    m = (1.0 - s) * m + s * eye
    return m


def brute_force_min_beta(
    sigma: DensityMatrix,
    rho: DensityMatrix,
    alpha0: float,
    samples: int = 100_000,
    seed: int = 0,
    batch: int = 20_000,
) -> SearchReport:
    """Smallest type-II error found among random feasible tests.

    The sampled operators satisfy alpha(M) in [alpha0 - 1e-3, alpha0], so the
    result upper-bounds the true infimum and, by optimality, can never fall
    below the constructed test's beta (up to roundoff).
    """
    if sigma.dim != rho.dim:
        raise ValueError("state dimensions differ")
    if sigma.dim > MAX_BRUTE_DIM:
        raise RegimeTooLarge(f"brute force limited to d <= {MAX_BRUTE_DIM}, got {sigma.dim}")
    if samples < 1_000:
        raise ValueError("need at least 10^3 samples")
    if not 0.0 <= alpha0 <= 1.0:
        raise ValueError("alpha0 must lie in [0, 1]")
    target = max(alpha0 - 1e-6, alpha0 * (1.0 - 1e-3))
    rng = np.random.Generator(np.random.Philox(seed))
    best = math.inf
    best_alpha = math.nan
    done = 0
    while done < samples:
        n = min(batch, samples - done)
        m = sample_test_operators(sigma.dim, n, target, sigma.matrix, rng)
        beta = 1.0 - np.real(np.einsum("ij,nji->n", rho.matrix, m))
        i = int(np.argmin(beta))
        if beta[i] < best:
            best = float(beta[i])
            best_alpha = float(np.real(np.einsum("ij,ji->", sigma.matrix, m[i])))
        done += n
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

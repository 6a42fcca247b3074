"""Finite-sampling robustness certification with Hoeffding confidence bounds.

The certification procedure measures the classifier N times on the benign
input, lower-bounds the top-class probability as

    pA_lower = y_hat_kA - sqrt(-log(eps) / (2N)),

and, when pA_lower > 1/2, reports the certified radius
sqrt(1/2 - sqrt(pA_lower (1 - pA_lower))) together with the other applicable
bounds; otherwise it abstains.  A depolarization-smoothed variant samples the
smoothed input and reports the smoothed radii, which certify a ball around
the original (unsmoothed) state.

Sampling uses the counter-based Philox generator keyed by the caller's seed,
so certificates are bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .bounds import BoundReport, _depol_radii, bound_report, smoothing_covers_everything
from .classifier import Classifier, class_probabilities
from .errors import _check_count
from .states import DensityMatrix, depolarize, is_rank_one

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class HoeffdingEstimate:
    """Confidence bounds on the top two class probabilities.

    ``k_a`` / ``k_b`` are indices into the counts vector (top and runner-up
    empirical classes, ties to the lower index).  ``clipped`` records whether
    either bound had to be clipped back into [0, 1].
    """

    pA_lower: float
    pB_upper: float
    k_a: int
    k_b: int
    clipped: bool


@dataclass(frozen=True)
class Certificate:
    """Outcome of a certification run.

    ``abstained`` is True exactly when pA_lower <= 1/2 (no radius is then
    reported).  ``radii`` carries every bound applicable to the operating
    point.  ``covers_all_states`` marks the smoothed regime in which the
    radius saturates at 1 and the certificate covers the whole state space.
    """

    label: object
    pA_lower: float
    pB_upper: float
    epsilon: float
    n_shots: int
    seed: int
    abstained: bool
    radii: BoundReport | None
    counts: tuple
    smoothing_p: float = 0.0
    mode: str = "protocol"
    clipped: bool = False
    covers_all_states: bool = False
    classifier_hash: str = ""
    state_hash: str = ""


def hoeffding_margin(n_shots: int, epsilon: float) -> float:
    _check_count(n_shots, 1, "n_shots must be >= 1, got {}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.sqrt(-math.log(epsilon) / (2.0 * n_shots))


def _philox(seed: int) -> np.random.Generator:
    """The counter-based Philox generator keyed by ``seed``."""
    _check_count(seed, 0, "seed must be a non-negative integer, got {}")
    return np.random.Generator(np.random.Philox(seed))


def sample_outcomes(cl: Classifier, sigma: DensityMatrix, n_shots: int, seed: int) -> np.ndarray:
    """Counts of N i.i.d. measurement outcomes, ordered like ``cl.labels``.

    Identical (classifier, state, N, seed) always reproduce identical counts.
    """
    _check_count(n_shots, 1, "n_shots must be >= 1, got {}")
    probs = class_probabilities(cl, sigma)
    probs = probs / probs.sum()
    return _philox(seed).multinomial(n_shots, probs)


def hoeffding_bounds(counts, n_shots: int, epsilon: float) -> HoeffdingEstimate:
    """Lower/upper confidence bounds for the top two empirical classes."""
    _check_count(n_shots, 1, "n_shots must be >= 1, got {}")
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size < 2 or counts.dtype.kind not in "iu" or np.any(counts < 0):
        raise ValueError(f"counts must be a vector of at least two non-negative integers, got {counts}")
    if int(counts.sum()) != n_shots:
        raise ValueError("counts must sum to n_shots")
    freq = counts / float(n_shots)
    order = np.lexsort((np.arange(len(freq)), -freq))
    k_a, k_b = int(order[0]), int(order[1])
    margin = hoeffding_margin(n_shots, epsilon)
    lower = freq[k_a] - margin
    upper = freq[k_b] + margin
    clipped = bool(lower < 0.0 or upper > 1.0)
    return HoeffdingEstimate(
        pA_lower=float(np.clip(lower, 0.0, 1.0)),
        pB_upper=float(np.clip(upper, 0.0, 1.0)),
        k_a=k_a,
        k_b=k_b,
        clipped=clipped,
    )


def _input_hashes(cl: Classifier, sigma: DensityMatrix) -> tuple[str, str]:
    return (
        serialize.content_hash(serialize.classifier_to_json(cl)),
        serialize.content_hash(serialize.density_to_json(sigma)),
    )


def _certify(
    cl: Classifier,
    sigma: DensityMatrix,
    n_shots: int,
    epsilon: float,
    seed: int,
    mode: str,
    p: float,
) -> Certificate:
    """The certification pipeline; p > 0 samples the depolarized input and reports smoothed radii."""
    counts = sample_outcomes(cl, depolarize(sigma, p) if p > 0.0 else sigma, n_shots, seed)
    est = hoeffding_bounds(counts, n_shots, epsilon)
    label = cl.labels[est.k_a]
    pure = is_rank_one(sigma)
    cl_hash, st_hash = _input_hashes(cl, sigma)

    if mode == "protocol":
        abstained = est.pA_lower <= 0.5
        p_b = 1.0 - est.pA_lower
    else:
        abstained = est.pA_lower <= est.pB_upper
        p_b = est.pB_upper

    radii = None
    covers_all = False
    if not abstained and p == 0.0:
        radii = bound_report(est.pA_lower, p_b, benign_pure=pure)
    elif not abstained:
        pa = est.pA_lower
        r_qht, r_hoelder, r_dp = _depol_radii(pa, p, sigma.dim, pure)
        covers_all = pure and smoothing_covers_everything(pa, p, sigma.dim)
        radii = BoundReport(pa, p_b, p, r_depol_qht=r_qht, r_depol_hoelder=r_hoelder, r_depol_dp=r_dp)
    return Certificate(
        label=label,
        pA_lower=est.pA_lower,
        pB_upper=p_b,
        epsilon=epsilon,
        n_shots=n_shots,
        seed=seed,
        abstained=abstained,
        radii=radii,
        counts=tuple(int(c) for c in counts),
        smoothing_p=p,
        mode=mode,
        clipped=est.clipped,
        covers_all_states=covers_all,
        classifier_hash=cl_hash,
        state_hash=st_hash,
    )


def certify(
    cl: Classifier,
    sigma: DensityMatrix,
    n_shots: int,
    epsilon: float,
    seed: int,
    mode: str = "protocol",
) -> Certificate:
    """Sampling-based certification of the prediction on a benign input.

    ``mode="protocol"`` follows the published procedure: pB is tied to
    1 - pA_lower and the run abstains when pA_lower <= 1/2.  The pure-state
    radius is reported only when sigma is pure (``states.is_rank_one``:
    ||sigma - psi psi^H||_F <= 1e-13); for mixed benign inputs only the
    duality radius applies.

    ``mode="extended"`` additionally Hoeffding-bounds the runner-up class and
    feeds (pA_lower, pB_upper) to the general bounds; it abstains when
    pA_lower <= pB_upper.  This mode is an extension beyond the published
    protocol and carries no tightness claim.
    """
    if mode not in ("protocol", "extended"):
        raise ValueError("mode must be 'protocol' or 'extended'")
    return _certify(cl, sigma, n_shots, epsilon, seed, mode, 0.0)


def certify_smoothed(
    cl: Classifier,
    sigma: DensityMatrix,
    p: float,
    n_shots: int,
    epsilon: float,
    seed: int,
) -> Certificate:
    """Certification with a depolarizing channel applied before the classifier.

    Samples the classifier on the smoothed input and reports radii in trace
    distance between the *unsmoothed* states.  Pure inputs of every dimension
    d >= 2 get the closed-form radius ``radius_depol_qht`` at d (d < 2 raises
    ``OutOfRegime``), qubits also the differential-privacy radius, and mixed
    inputs keep only the duality radius.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("smoothing parameter p must lie in (0, 1)")
    return _certify(cl, sigma, n_shots, epsilon, seed, "protocol", p)


def certificate_to_json(cert: Certificate) -> dict:
    """JSON record of a certificate, including tool version and input hashes."""
    obj = dataclasses.asdict(cert)
    obj["counts"] = list(cert.counts)
    obj["version"] = TOOL_VERSION
    return obj

import math

import numpy as np
import pytest

from qhtcert import oracle
from qhtcert.errors import DimMismatch, OutOfRegime
from qhtcert.helstrom import EIG_FLOOR, _condition_levels, _Route, _tau_search
from qhtcert.states import Channel, DensityMatrix, Povm, PureState, depolarize


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _alpha_plus(rho, sigma, t: float, lambda_tol: float) -> float:
    """Reference predicate alpha(P_plus(t)), from the eigenvectors of rho - t*sigma
    above the zero band max(lambda_tol * ||w||_inf, EIG_FLOOR * (1 + t)),
    without assembling the projector."""
    w, v = np.linalg.eigh(rho.matrix - t * sigma.matrix)
    thr = max(lambda_tol * float(np.max(np.abs(w))), EIG_FLOOR * (1.0 + t))
    k = int(np.searchsorted(w, thr, side="right"))
    cols = v[:, k:]
    return float(np.real(np.sum(cols.conj() * (sigma.matrix @ cols))))


def _secular_point(p, s: float, level: float):
    """Reference for ``helstrom._secular_point``: the same cancellation-free
    sums as numpy vector expressions on the pencil's lists, returning the
    fields (t, alpha, slope, beta, dual, r, r2)."""
    lam, w, zero = np.array(p.lam), np.array(p.w), np.array(p.ker)
    y, ker = math.exp(s), p.w_ker > 0.0
    if y > 0.0:
        den = lam + y
        r, b = y / den, lam / den
    elif ker:
        r = zero.astype(float)
        b = 1.0 - r
    else:
        r = np.divide(1.0, lam, out=np.zeros_like(lam), where=~zero)
        b = (~zero).astype(float)
    wr = w * r
    wr2 = wr * r
    r1, r2, big_b, u = float(wr.sum()), float(wr2.sum()), float(w @ b), float(wr @ b)
    t = y / r1 if y > 0.0 or ker else 1.0 / r1
    dev = r * big_b - b * r1
    alpha = float((w * dev) @ dev) / (p.s0 * r2)
    rate = r * (u / r2) - b
    slope = -2.0 * float((wr * rate) @ rate)
    beta = 1.0 - p.trace + float(wr2 @ lam) / r2
    dual = 1.0 - p.trace + t * (big_b - level) - p.slack - t * p.slack_t
    return t, alpha, slope, beta, dual, r, r2


def converged_margin(sigma, rho, p_a: float, p_b: float) -> float:
    """The dual condition margin g_A + g_B - 1 (2 * g(L) - 1 on equal levels)
    of level searches run to convergence on one route: each distinct level's
    ``helstrom._tau_search`` drained to its last lower bound, summed as
    ``helstrom._condition_margin`` sums a round."""
    route = _Route(rho, sigma)
    levels = list(dict.fromkeys(_condition_levels(p_a, p_b)))
    lowers = []
    for level in levels:
        *_, (lower, _, _) = _tau_search(route, level)
        lowers.append(lower)
    return 2.0 / len(levels) * sum(lowers) - 1.0


# ---------------------------------------------------------------------------
# Random instances


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_pure(dim: int, rng: np.random.Generator) -> PureState:
    v = _ginibre(rng, dim, 1)[:, 0]
    return PureState(v / np.linalg.norm(v))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    g = _ginibre(rng, dim, rank or dim)
    m = g @ g.conj().T
    return DensityMatrix(m / np.real(np.trace(m)))


def random_channel(dim_in: int, dim_out: int, n_kraus: int, rng: np.random.Generator) -> Channel:
    """Haar-ish random CPTP map via a QR-orthonormalized Stinespring isometry."""
    a = _ginibre(rng, dim_out * n_kraus, dim_in)
    q, _ = np.linalg.qr(a)
    return Channel(tuple(q[i * dim_out : (i + 1) * dim_out, :] for i in range(n_kraus)))


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Random POVM from normalized positive Ginibre blocks."""
    blocks = []
    for _ in range(n_outcomes):
        g = _ginibre(rng, dim, dim)
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return Povm(tuple(inv_sqrt @ b @ inv_sqrt for b in blocks))


# ---------------------------------------------------------------------------
# Oracle references


def sample_test_operators(
    dim: int, n: int, alpha_target: float, sigma: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random operators 0 <= M <= 1 with Tr[sigma M] = alpha_target.

    Assembles Ginibre-style Hermitian matrices h from ``_draw_entries``, maps
    the spectrum affinely onto [0, 1] as M = (h - lo*1)/(hi - lo), then makes
    one scalar adjustment: scale down, or mix toward the identity, until the
    type-I error hits the target.  ``brute_force_min_beta`` searches the same
    tests (same draws from the same Philox stream, same mapping) without
    building them.  Raises ``ValueError`` for dim < 1, n < 1 or a target
    outside [0, 1] (NaN included) and ``DimMismatch`` when sigma is not
    dim x dim.
    """
    if not 0.0 <= alpha_target <= 1.0:
        raise ValueError(f"alpha_target must lie in [0, 1], got {alpha_target}")
    if dim < 1 or n < 1:
        raise ValueError(f"need dim >= 1 and n >= 1, got dim={dim}, n={n}")
    if np.shape(sigma) != (dim, dim):
        raise DimMismatch(f"sigma must be {dim}x{dim}, got shape {np.shape(sigma)}")
    h = oracle._hermitian_stack(oracle._draw_entries(dim, n, rng))
    w = np.linalg.eigvalsh(h)[:, :, None]
    lo, span = w[:, :1], w[:, -1:] - w[:, :1]
    eye = np.eye(dim)
    m = (h - lo * eye) / np.where(span < 1e-12, 1.0, span)
    return oracle._adjust(m, eye, np.real(np.einsum("ij,nji->n", sigma, m))[:, None, None], alpha_target)


def _smoothed_boundary_generic(sigma: DensityMatrix, p: float, p_a: float, steps: int = 40) -> float:
    """Reference search for ``bounds.radius_depol_qht`` at sigma's dimension.

    Searches the angle between the pure state sigma and a pure state in a
    fixed 2-plane at phase 0, both depolarized with parameter p, by the
    margin-guided steps of ``oracle._plane_boundary_radius`` on the generic
    condition's dual margin, down to bracket width pi * 2**-steps; for pure
    pairs the condition depends only on the overlap, so the result is the
    trace distance (between unsmoothed states) below which certification
    holds.  ``OutOfRegime`` below d = 2.
    """
    d = sigma.dim
    if d < 2:
        raise OutOfRegime(f"requires dimension d >= 2, got {d}")
    psi = PureState.from_density(sigma).amplitudes
    # Orthonormal partner spanning the 2-plane: the basis vector psi overlaps least, minus its psi part.
    k = int(np.argmin(np.abs(psi)))
    partner = np.eye(d)[k] - np.conj(psi[k]) * psi
    partner = partner / np.linalg.norm(partner)
    null = depolarize(sigma, p)

    def margin(theta: float) -> float:
        rho = PureState(np.cos(theta / 2.0) * psi + np.sin(theta / 2.0) * partner).density()
        return converged_margin(null, depolarize(rho, p), p_a, 1.0 - p_a)

    return oracle._plane_boundary_radius(margin, p_a, 1.0 - p_a, steps)


@pytest.fixture
def rng():
    return philox(20240817)

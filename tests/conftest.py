import numpy as np
import pytest

from qhtcert.helstrom import EIG_FLOOR


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


@pytest.fixture
def rng():
    return philox(20240817)

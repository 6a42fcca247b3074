import numpy as np
import pytest

from qhtcert.helstrom import _plus_start


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _alpha_plus(rho, sigma, t: float, lambda_tol: float) -> float:
    """Reference predicate alpha(P_plus(t)), from the eigenvectors of rho - t*sigma
    above the zero threshold, without assembling the projector."""
    w, v = np.linalg.eigh(rho.matrix - t * sigma.matrix)
    _, k = _plus_start(w, t, lambda_tol)
    cols = v[:, k:]
    return float(np.real(np.sum(cols.conj() * (sigma.matrix @ cols))))


@pytest.fixture
def rng():
    return philox(20240817)

"""Dense complex linear algebra for finite-dimensional quantum states.

Density matrices, pure states, Kraus channels and POVMs, together with the
basic distance measures (trace distance, Uhlmann fidelity) and the
depolarizing channel used for input smoothing.

All types are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    NotHermitian,
    NotPSD,
    NotTracePreserving,
    TraceNotOne,
)

# Absolute tolerances for invariant checks on trace-one-scale operators.
# Double precision at d <= ~64 leaves several orders of magnitude headroom.
TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_TP = 1e-9
TOL_PSD = 1e-9
TOL_NORM = 1e-9

# Second-largest eigenvalue below which a density matrix counts as rank one.
RANK_ONE_TOL = 1e-8


def _as_complex_matrix(value) -> np.ndarray:
    arr = np.array(value, dtype=np.complex128, order="C", copy=True)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    arr.setflags(write=False)
    return arr


def hermitian_residual(a: np.ndarray) -> float:
    """Largest entrywise deviation of ``a`` from its conjugate transpose."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A d x d Hermitian, PSD, trace-one matrix.

    Construct through :func:`validate_density` to get the invariants checked;
    the bare constructor only normalizes storage (complex128, read-only).
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix))
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("density matrix must be square")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if arr.ndim != 1:
            raise ValueError("amplitudes must be a 1-d vector")
        norm = float(np.linalg.norm(arr))
        # A NaN norm passes the tolerance test below, so check it first.
        if not math.isfinite(norm):
            raise ValueError("matrix entries must be finite")
        if abs(norm - 1.0) > TOL_NORM:
            raise ValueError(f"state vector norm {norm} differs from 1 beyond {TOL_NORM}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> DensityMatrix:
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))

    @classmethod
    def bloch(cls, theta: float, phi: float) -> "PureState":
        """Qubit state cos(theta/2)|0> + sin(theta/2) e^{i phi}|1>."""
        return cls([np.cos(theta / 2.0), np.sin(theta / 2.0) * np.exp(1j * phi)])

    @classmethod
    def from_density(cls, dm: DensityMatrix) -> "PureState":
        """Extract the amplitude vector of a rank-one density matrix.

        Raises ValueError when the second-largest eigenvalue is >= RANK_ONE_TOL.
        """
        w, v = np.linalg.eigh(dm.matrix)
        if dm.dim > 1 and w[-2] >= RANK_ONE_TOL:
            raise ValueError(f"density matrix is not rank one (second eigenvalue {w[-2]:.3e})")
        vec = v[:, -1]
        # Fix the global phase so round-trips are stable.
        k = int(np.argmax(np.abs(vec)))
        vec = vec * np.exp(-1j * np.angle(vec[k]))
        return cls(vec / np.linalg.norm(vec))


def is_rank_one(dm: DensityMatrix) -> bool:
    w = np.linalg.eigvalsh(dm.matrix)
    return dm.dim == 1 or bool(w[-2] < RANK_ONE_TOL)


@dataclass(frozen=True, eq=False)
class Channel:
    """A CPTP map given by Kraus operators (possibly rectangular d_out x d_in).

    Construction checks trace preservation: sum_i K_i^dag K_i = 1.
    """

    kraus: tuple

    def __post_init__(self):
        mats = tuple(_as_complex_matrix(k) for k in self.kraus)
        if not mats:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = mats[0].shape
        if any(k.shape != shape for k in mats):
            raise DimMismatch("all Kraus operators must share one shape")
        acc = sum(k.conj().T @ k for k in mats)
        res = float(np.max(np.abs(acc - np.eye(shape[1]))))
        if res > TOL_TP:
            raise NotTracePreserving("sum K^dag K != 1", residual=res)
        object.__setattr__(self, "kraus", mats)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement elements, one per class label, summing to the identity."""

    elements: tuple
    labels: tuple = None

    def __post_init__(self):
        mats = tuple(_as_complex_matrix(e) for e in self.elements)
        if not mats:
            raise ValueError("a POVM needs at least one element")
        d = mats[0].shape[0]
        for e in mats:
            if e.shape != (d, d):
                raise DimMismatch("POVM elements must be square and equal-dimensional")
            res = hermitian_residual(e)
            if res > TOL_HERM:
                raise NotHermitian("POVM element not Hermitian", residual=res)
            w = np.linalg.eigvalsh((e + e.conj().T) / 2.0)
            if w[0] < -TOL_PSD or w[-1] > 1.0 + TOL_PSD:
                raise NotPSD(
                    "POVM element eigenvalues outside [0, 1]",
                    residual=float(max(-w[0], w[-1] - 1.0)),
                )
        acc = sum(mats)
        res = float(np.max(np.abs(acc - np.eye(d))))
        if res > TOL_TP:
            raise NotTracePreserving("POVM elements do not sum to 1", residual=res)
        labels = self.labels
        labels = tuple(range(len(mats))) if labels is None else tuple(labels)
        if len(labels) != len(mats):
            raise ValueError("one label per POVM element required")
        object.__setattr__(self, "elements", mats)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


# ---------------------------------------------------------------------------
# Constructors and validation


def validate_density(raw) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity, then wrap the matrix.

    The stored matrix is symmetrized, (A + A^dag)/2, so downstream
    eigendecompositions see an exactly Hermitian operand.  Eigenvalues in
    [-TOL_PSD, 0) are accepted (clipped conceptually at zero), anything lower
    raises :class:`NotPSD`.
    """
    a = DensityMatrix(raw).matrix
    res = hermitian_residual(a)
    if res > TOL_HERM:
        raise NotHermitian("matrix is not Hermitian", residual=res)
    h = (a + a.conj().T) / 2.0
    tr = float(np.real(np.trace(h)))
    if abs(tr - 1.0) > TOL_TRACE:
        raise TraceNotOne("trace differs from 1", residual=abs(tr - 1.0))
    w = np.linalg.eigvalsh(h)
    if w[0] < -TOL_PSD:
        raise NotPSD("matrix has a negative eigenvalue", residual=float(-w[0]))
    return DensityMatrix(h)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim) / dim)


def identity_kraus(dim: int) -> Channel:
    return Channel((np.eye(dim),))


def depolarizing_kraus(p: float, dim: int = 2) -> Channel:
    """Kraus form of the depolarizing channel rho -> (1-p) rho + (p/d) 1.

    Uses the d^2 Weyl (shift/clock) unitaries; their uniform twirl maps any
    state to the maximally mixed state.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarization parameter must lie in [0, 1]")
    omega = np.exp(2j * np.pi / dim)
    shift = np.roll(np.eye(dim), 1, axis=0)
    clock = np.diag(omega ** np.arange(dim))
    ops = []
    for a in range(dim):
        for b in range(dim):
            w = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            if a == 0 and b == 0:
                ops.append(np.sqrt(1.0 - p + p / dim**2) * w)
            else:
                ops.append(np.sqrt(p / dim**2) * w)
    return Channel(tuple(ops))


# ---------------------------------------------------------------------------
# Operations


def spectral_decompose(a):
    """Eigenvalues (descending) and orthonormal eigenvector columns of a
    Hermitian matrix."""
    m = np.asarray(a, dtype=np.complex128)
    res = hermitian_residual(m)
    if res > TOL_HERM:
        raise NotHermitian("matrix is not Hermitian", residual=res)
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """T(rho, sigma) = (1/2) ||rho - sigma||_1 via the eigenvalues of the
    Hermitian difference."""
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    w = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.clip(0.5 * np.sum(np.abs(w)), 0.0, 1.0))


def _sqrtm_psd(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Reduces to the squared overlap |<psi|phi>|^2 for pure states.  Rank-one
    inputs take the exact expectation-value path F = w1 <v1|other|v1>, which
    avoids the sqrt-of-roundoff noise of the generic route; otherwise negative
    eigenvalues within tolerance are clipped to zero before the square roots.
    """
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    for a, b in ((rho, sigma), (sigma, rho)):
        w, v = np.linalg.eigh(a.matrix)
        if a.dim == 1 or w[-2] < 1e-12:
            top = v[:, -1]
            f = w[-1] * np.real(np.vdot(top, b.matrix @ top))
            return float(np.clip(f, 0.0, 1.0))
    s = _sqrtm_psd(rho.matrix)
    w = np.linalg.eigvalsh(s @ sigma.matrix @ s)
    w = np.clip(w, 0.0, None)
    return float(np.clip(np.sum(np.sqrt(w)) ** 2, 0.0, 1.0))


def apply_channel(ch: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Evolve a state, rho -> sum_i K_i rho K_i^dag.

    The output is symmetrized, (A + A^dag)/2, as ``validate_density`` stores
    it, but not re-checked: a channel checked as trace preserving maps a
    density matrix to one.
    """
    if ch.dim_in != rho.dim:
        raise DimMismatch(f"channel expects dim {ch.dim_in}, state has dim {rho.dim}")
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=np.complex128)
    for k in ch.kraus:
        out += k @ rho.matrix @ k.conj().T
    return DensityMatrix((out + out.conj().T) / 2.0)


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """(1-p) rho + (p/d) 1, the depolarization-smoothed state."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarization parameter must lie in [0, 1]")
    d = rho.dim
    return DensityMatrix((1.0 - p) * rho.matrix + (p / d) * np.eye(d))


# ---------------------------------------------------------------------------
# Random instances (used by the search oracles and the test suite)


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

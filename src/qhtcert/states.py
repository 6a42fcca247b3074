"""Dense complex linear algebra for finite-dimensional quantum states.

Density matrices, pure states, Kraus channels and POVMs, together with the
trace distance, the one test of whether a density matrix is pure
(``is_rank_one``), and the depolarizing channel used for input smoothing.

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
    _check_count,
)

# The one absolute tolerance of the invariant checks on trace-one-scale
# operators: Hermiticity, unit trace, trace preservation and completeness,
# positivity and unit norm.  Double precision at d <= ~64 leaves several
# orders of magnitude headroom.
TOL = 1e-9

# Frobenius distance ||sigma - psi psi^H||_F up to which a density matrix
# counts as rank one (``_rank_one_factor``).
RANK_ONE_TOL = 1e-13


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
        if abs(norm - 1.0) > TOL:
            raise ValueError(f"state vector norm {norm} differs from 1 beyond {TOL}")
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
        """The unit amplitude vector of a rank-one density matrix (``is_rank_one``),
        with its largest entry real and positive.  Raises ValueError otherwise."""
        factor = _rank_one_factor(dm)
        if factor is None:
            raise ValueError(f"density matrix is not rank one (||sigma - psi psi^H||_F > {RANK_ONE_TOL:g})")
        return cls(factor[0] / np.linalg.norm(factor[0]))


def _rank_one_factor(dm: DensityMatrix):
    """(psi, ||sigma - psi psi^H||_F) when that residual is at most
    RANK_ONE_TOL, else None.  psi = sigma[:, j] / sqrt(sigma_jj), j the
    largest diagonal entry, is found in O(d^2) without an eigh; it is not
    normalized."""
    mat = dm.matrix
    j = int(np.argmax(mat.diagonal().real))
    if mat[j, j].real <= 0.0:
        return None
    psi = mat[:, j] / math.sqrt(mat[j, j].real)
    diff = mat - np.outer(psi, psi.conj())
    residual = math.sqrt(np.vdot(diff, diff).real)
    return (psi, residual) if residual <= RANK_ONE_TOL else None


def is_rank_one(dm: DensityMatrix) -> bool:
    """Whether dm is pure: the package's one purity rule (``_rank_one_factor``)."""
    return _rank_one_factor(dm) is not None


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
        if res > TOL:
            raise NotTracePreserving("sum K^dag K != 1", residual=res)
        object.__setattr__(self, "kraus", mats)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


def _check_labels(labels: tuple, count: int) -> None:
    """Raise ValueError unless there are count labels, no two comparing equal."""
    if len(labels) != count:
        raise ValueError("one label per POVM element required")
    if any(a == b for i, a in enumerate(labels) for b in labels[:i]):
        raise ValueError(f"class labels must be distinct, got {list(labels)}")


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement elements, one per class label (no two equal), summing to the identity."""

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
            if res > TOL:
                raise NotHermitian("POVM element not Hermitian", residual=res)
            w = np.linalg.eigvalsh((e + e.conj().T) / 2.0)
            if w[0] < -TOL or w[-1] > 1.0 + TOL:
                raise NotPSD(
                    "POVM element eigenvalues outside [0, 1]",
                    residual=float(max(-w[0], w[-1] - 1.0)),
                )
        acc = sum(mats)
        res = float(np.max(np.abs(acc - np.eye(d))))
        if res > TOL:
            raise NotTracePreserving("POVM elements do not sum to 1", residual=res)
        labels = tuple(range(len(mats))) if self.labels is None else tuple(self.labels)
        _check_labels(labels, len(mats))
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
    [-TOL, 0) are accepted (clipped conceptually at zero), anything lower
    raises :class:`NotPSD`.
    """
    a = DensityMatrix(raw).matrix
    res = hermitian_residual(a)
    if res > TOL:
        raise NotHermitian("matrix is not Hermitian", residual=res)
    h = (a + a.conj().T) / 2.0
    tr = float(np.real(np.trace(h)))
    if abs(tr - 1.0) > TOL:
        raise TraceNotOne("trace differs from 1", residual=abs(tr - 1.0))
    w = np.linalg.eigvalsh(h)
    if w[0] < -TOL:
        raise NotPSD("matrix has a negative eigenvalue", residual=float(-w[0]))
    return DensityMatrix(h)


def identity_kraus(dim: int) -> Channel:
    _check_count(dim, 1, "dimension must be a positive integer, got {}")
    return Channel((np.eye(dim),))


def depolarizing_kraus(p: float, dim: int = 2) -> Channel:
    """Kraus form of the depolarizing channel rho -> (1-p) rho + (p/d) 1.

    Uses the d^2 Weyl (shift/clock) unitaries; their uniform twirl maps any
    state to the maximally mixed state.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarization parameter must lie in [0, 1]")
    _check_count(dim, 1, "dimension must be a positive integer, got {}")
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


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """T(rho, sigma) = (1/2) ||rho - sigma||_1 via the eigenvalues of the
    Hermitian difference."""
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    w = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.clip(0.5 * np.sum(np.abs(w)), 0.0, 1.0))


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


"""Quantum classifiers: a channel followed by a multi-outcome measurement.

A classifier maps a state sigma to class probabilities
y_k = Tr[Pi_k E(sigma)] and predicts the argmax class.  The worst-case
classifier is built from the optimal hypothesis test, which is what connects
classifiers to the certification machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, OutOfRegime
from .helstrom import helstrom
from .states import TOL, Channel, DensityMatrix, Povm, _check_labels, apply_channel, identity_kraus


@dataclass(frozen=True, eq=False)
class Classifier:
    """A CPTP channel plus a POVM with one element per class label (no two equal)."""

    channel: Channel
    povm: Povm
    labels: tuple = None

    def __post_init__(self):
        labels = self.povm.labels if self.labels is None else tuple(self.labels)
        _check_labels(labels, len(self.povm.elements))
        if len(labels) < 2:
            raise ValueError("a classifier needs at least two classes")
        if self.channel.dim_out != self.povm.dim:
            raise DimMismatch(
                f"channel output dim {self.channel.dim_out} != POVM dim {self.povm.dim}"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def dim_in(self) -> int:
        return self.channel.dim_in


def class_probabilities(cl: Classifier, sigma: DensityMatrix) -> np.ndarray:
    """y_k = Tr[Pi_k E(sigma)], ordered like ``cl.labels``, clipped to [0, 1].

    Before the clip they sum to Tr[(sum_k Pi_k) E(sigma)], within (1 + d_in +
    d_out) * TOL of 1 to first order: Tr sigma is 1 within TOL, and sum
    K^dag K and sum_k Pi_k, 1 within TOL entrywise, are 1 within d_in * TOL
    and d_out * TOL in operator norm.  A sum off by more than twice that
    (room for second-order terms and roundoff) raises ValueError.
    """
    if cl.dim_in != sigma.dim:
        raise DimMismatch(f"classifier expects dim {cl.dim_in}, state has dim {sigma.dim}")
    evolved = apply_channel(cl.channel, sigma)
    probs = np.array(
        [np.real(np.trace(e @ evolved.matrix)) for e in cl.povm.elements], dtype=float
    )
    total = probs.sum()
    if abs(total - 1.0) > 2.0 * (1 + cl.dim_in + cl.povm.dim) * TOL:
        raise ValueError(f"class probabilities sum to {total}, not 1")
    return np.clip(probs, 0.0, 1.0)


def worst_case_classifier(
    sigma: DensityMatrix,
    rho: DensityMatrix,
    p_a: float,
    k_a,
    k_b,
    labels: tuple = None,
) -> Classifier:
    """The classifier that saturates the robustness condition at p_b = 1 - p_a.

    With M the optimal test at type-I error 1 - p_a, the POVM assigns
    Pi_{k_a} = 1 - M and Pi_{k_b} = M (zero operators for any other class in
    ``labels``).  It reproduces (p_a, 1 - p_a) on sigma, and whenever the
    robustness condition fails for rho it predicts k_b there.
    """
    if not 0.5 < p_a <= 1.0:
        raise OutOfRegime(f"requires pA > 1/2, got {p_a}")
    if k_a == k_b:
        raise ValueError("k_a and k_b must differ")
    if labels is None:
        try:
            labels = tuple(sorted((k_a, k_b)))
        except TypeError:
            labels = (k_a, k_b)
    if k_a not in labels or k_b not in labels:
        raise ValueError("labels must contain both k_a and k_b")
    test = helstrom(rho, sigma, 1.0 - p_a)
    d = sigma.dim
    elements = []
    for lab in labels:
        if lab == k_a:
            elements.append(np.eye(d) - test.m)
        elif lab == k_b:
            elements.append(test.m)
        else:
            elements.append(np.zeros((d, d)))
    povm = Povm(tuple(elements), tuple(labels))
    return Classifier(identity_kraus(d), povm, tuple(labels))

"""A worked single-qubit example used by the CLI and the test suite.

The benign state is |0>, the adversarial state sits at polar angle pi/3 with
azimuth -pi/2, and the classifier splits the Bloch sphere with a projective
measurement along the axis at polar angle 2*arccos(sqrt(0.9)), azimuth pi/2.
On |0> it reports class 0 with probability 0.9; the adversarial state gets
misclassified.

``reference_numbers`` stores the analytically derived values for this setup
(threshold t of the optimal test, its type-II error, and the largest
certified angle at confidence 0.9), which the ``toy-example`` CLI command
checks the generic machinery against.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import pure_beta_closed_form, radius_qht_pure
from .classifier import Classifier
from .states import Povm, PureState, identity_kraus

THETA0 = math.pi / 3.0
PHI0 = -math.pi / 2.0
TOP_PROBABILITY = 0.9
ALPHA0 = 1.0 - TOP_PROBABILITY


def benign_state() -> PureState:
    return PureState([1.0, 0.0])


def adversarial_state(theta0: float = THETA0, phi0: float = PHI0) -> PureState:
    return PureState.bloch(theta0, phi0)


def hemisphere_classifier(top_probability: float = TOP_PROBABILITY, phi: float = math.pi / 2.0) -> Classifier:
    """Binary qubit classifier splitting the Bloch sphere by a tilted axis.

    The class-0 element projects onto the Bloch vector at polar angle
    2*arccos(sqrt(top_probability)) and azimuth ``phi``, so that
    y_0(|0><0|) = top_probability.
    """
    theta = 2.0 * math.acos(math.sqrt(top_probability))
    axis = PureState.bloch(theta, phi)
    proj = np.outer(axis.amplitudes, axis.amplitudes.conj())
    povm = Povm((proj, np.eye(2) - proj), (0, 1))
    return Classifier(identity_kraus(2), povm, (0, 1))


def balanced_classifier() -> Classifier:
    """Qubit classifier with y = (1/2, 1/2) on every input; always abstains."""
    povm = Povm((np.eye(2) / 2.0, np.eye(2) / 2.0), (0, 1))
    return Classifier(identity_kraus(2), povm, (0, 1))


def reference_numbers() -> dict:
    """Analytically derived values for the worked example, with the squared
    overlap |g|^2 = cos^2(pi/6) = 3/4 of the two states.

    t_threshold  2|g|^2 - 1 - (2 a0 - 1) sqrt(|g|^2 (1-|g|^2) / (a0 (1-a0)))
    beta         the closed form ``bounds.pure_beta_closed_form`` at pA = 1 - a0
    theta_max    2 asin(``bounds.radius_qht_pure``(pA, 1 - pA)), largest certified angle
    """
    g2 = math.cos(THETA0 / 2.0) ** 2
    a0 = ALPHA0
    cross = math.sqrt(g2 * (1.0 - g2))
    t = 2.0 * g2 - 1.0 - (2.0 * a0 - 1.0) * cross / math.sqrt(a0 * (1.0 - a0))
    p_a = TOP_PROBABILITY
    return {
        "t_threshold": t,
        "beta": pure_beta_closed_form(g2, p_a, 1.0 - p_a)[0],
        "beta_rounded": 0.44,
        "theta_max": 2.0 * math.asin(radius_qht_pure(p_a, 1.0 - p_a)),
    }

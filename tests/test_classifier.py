import math

import numpy as np
import pytest

from qhtcert import (
    Classifier,
    DensityMatrix,
    Povm,
    PureState,
    certify_condition,
    class_probabilities,
    identity_kraus,
    radius_qht_pure,
    validate_density,
    worst_case_classifier,
)
from qhtcert import demo
from qhtcert.errors import DimMismatch, OutOfRegime

from conftest import philox, random_pure

SIGMA = demo.benign_state().density()
RHO = demo.adversarial_state().density()


def computational_classifier() -> Classifier:
    povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), (0, 1))
    return Classifier(identity_kraus(2), povm)


def top_label(cl: Classifier, state):
    """The label of the largest class probability."""
    return cl.labels[np.argmax(class_probabilities(cl, state))]


# ---------------------------------------------------------------------------
# probabilities


def test_computational_probabilities():
    cl = computational_classifier()
    assert np.allclose(class_probabilities(cl, SIGMA), [1.0, 0.0])
    assert np.allclose(class_probabilities(cl, DensityMatrix(np.eye(2) / 2)), [0.5, 0.5])


def test_demo_classifier_confidence():
    cl = demo.hemisphere_classifier()
    probs = class_probabilities(cl, SIGMA)
    assert probs[0] == pytest.approx(0.9, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_demo_classifier_misclassifies_the_adversarial_state():
    cl = demo.hemisphere_classifier()
    assert top_label(cl, RHO) == 1
    probs = class_probabilities(cl, RHO)
    # Its class-0 probability on rho equals the optimal test's type-II error.
    assert probs[0] == pytest.approx(0.4401923789, abs=1e-9)


def test_class_probabilities_allow_the_validation_tolerances():
    # Trace and completeness each 0.9e-9 from 1, within the validation
    # tolerance: the probabilities sum to 1 + 1.8e-9, inside the bound the
    # tolerances imply, and are returned as computed.
    scale = 1.0 + 0.9e-9
    sigma = validate_density(scale * np.eye(4) / 4)
    povm = Povm((scale * np.eye(4) / 2, scale * np.eye(4) / 2), ("a", "b"))
    probs = class_probabilities(Classifier(identity_kraus(4), povm), sigma)
    assert probs.tolist() == [scale * scale / 2] * 2
    # A bare matrix of trace 2 passes no validator and still raises.
    with pytest.raises(ValueError, match="sum to 2"):
        class_probabilities(computational_classifier(), DensityMatrix(np.eye(2)))


def test_class_probabilities_dim_mismatch():
    with pytest.raises(DimMismatch):
        class_probabilities(computational_classifier(), DensityMatrix(np.eye(3) / 3))


# ---------------------------------------------------------------------------
# worst-case construction


def test_worst_case_reproduces_confidence_and_flips():
    wc = worst_case_classifier(SIGMA, RHO, 0.9, 0, 1)
    probs = class_probabilities(wc, SIGMA)
    assert probs[0] == pytest.approx(0.9, abs=1e-9)
    assert probs[1] == pytest.approx(0.1, abs=1e-9)
    assert top_label(wc, RHO) == 1


def test_worst_case_with_extra_classes():
    wc = worst_case_classifier(SIGMA, RHO, 0.9, 0, 2, labels=(0, 1, 2))
    probs = class_probabilities(wc, SIGMA)
    assert probs[0] == pytest.approx(0.9, abs=1e-9)
    assert probs[1] == 0.0
    assert top_label(wc, RHO) == 2


def test_worst_case_cannot_flip_inside_certified_ball():
    radius = radius_qht_pure(0.9, 0.1)
    theta = 2.0 * math.asin(radius - 1e-3)
    nearby = PureState.bloch(theta, 1.1).density()
    assert certify_condition(SIGMA, nearby, 0.9, 0.1)
    wc = worst_case_classifier(SIGMA, nearby, 0.9, 0, 1)
    assert top_label(wc, nearby) == 0


def test_worst_case_tightness_on_random_violating_pairs():
    rng = philox(7)
    radius_cache = {}
    for _ in range(60):
        p_a = float(rng.uniform(0.55, 0.98))
        boundary = radius_cache.setdefault(p_a, radius_qht_pure(p_a, 1.0 - p_a))
        theta = float(rng.uniform(2.0 * math.asin(min(boundary + 1e-3, 1.0)), math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        sigma = random_pure(2, rng)
        # rotate the adversarial state away from sigma by theta
        perp = np.array([-np.conj(sigma.amplitudes[1]), np.conj(sigma.amplitudes[0])])
        amps = math.cos(theta / 2) * sigma.amplitudes + math.sin(theta / 2) * np.exp(1j * phi) * perp
        rho = PureState(amps).density()
        assert not certify_condition(sigma.density(), rho, p_a, 1.0 - p_a)
        wc = worst_case_classifier(sigma.density(), rho, p_a, 0, 1)
        probs = class_probabilities(wc, sigma.density())
        assert probs[0] == pytest.approx(p_a, abs=1e-9)
        assert top_label(wc, rho) == 1


@pytest.mark.parametrize(
    ("build", "fragment"),
    [
        pytest.param(
            lambda: Classifier(identity_kraus(2), Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))), (0, 1, 2)),
            "one label per POVM element",
            id="classifier-label-count",
        ),
        pytest.param(lambda: worst_case_classifier(SIGMA, RHO, 0.9, 0, 1, labels=(0, 2)), "both k_a and k_b", id="worst-case-labels"),
        # Certified label 0 against a runner-up that carried label 0 too.
        pytest.param(
            lambda: Classifier(identity_kraus(2), Povm((np.diag([0.6, 0.0]), np.diag([0.4, 1.0])), (0, 0))),
            "labels must be distinct",
            id="povm-repeated-labels",
        ),
        pytest.param(
            lambda: Classifier(identity_kraus(2), Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))), ("a", "a")),
            "labels must be distinct",
            id="classifier-repeated-labels",
        ),
    ],
)
def test_classifier_input_raises_a_typed_error(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


def test_worst_case_keeps_labels_that_do_not_sort():
    wc = worst_case_classifier(SIGMA, RHO, 0.9, 0, "b")
    assert wc.labels == (0, "b")
    assert class_probabilities(wc, SIGMA) == pytest.approx([0.9, 0.1], abs=1e-9)


def test_worst_case_input_validation():
    with pytest.raises(OutOfRegime):
        worst_case_classifier(SIGMA, RHO, 0.5, 0, 1)
    with pytest.raises(ValueError):
        worst_case_classifier(SIGMA, RHO, 0.9, 0, 0)


# ---------------------------------------------------------------------------
# construction checks


def test_classifier_rejects_povm_channel_dim_mismatch():
    povm = Povm((np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])), (0, 1))
    with pytest.raises(DimMismatch):
        Classifier(identity_kraus(2), povm)


def test_classifier_requires_two_classes():
    with pytest.raises(ValueError):
        Classifier(identity_kraus(2), Povm((np.eye(2),), (0,)))


def test_channel_output_dim_change():
    from qhtcert import Channel

    # isometry embedding a qubit into a qutrit
    v = np.zeros((3, 2))
    v[0, 0] = v[1, 1] = 1.0
    povm = Povm((np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])), (0, 1))
    cl = Classifier(Channel((v,)), povm)
    probs = class_probabilities(cl, SIGMA)
    assert np.allclose(probs, [1.0, 0.0])

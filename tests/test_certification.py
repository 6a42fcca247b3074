import importlib
import json
import math

import numpy as np
import pytest

from qhtcert import (
    Channel,
    Classifier,
    Povm,
    PureState,
    certificate_to_json,
    certify,
    certify_condition,
    certify_smoothed,
    depolarize,
    hoeffding_bounds,
    hoeffding_margin,
    identity_kraus,
    radius_qht_pure,
    radius_depol_qht,
    sample_outcomes,
    trace_distance,
)
import qhtcert
from qhtcert import demo, serialize
from qhtcert.errors import OutOfRegime
from qhtcert.oracle import boundary_radius_search, brute_force_min_beta, hoeffding_coverage

from conftest import _smoothed_boundary_generic, philox, random_pure

SIGMA = demo.benign_state().density()
DEMO = demo.hemisphere_classifier()


def computational_classifier() -> Classifier:
    return Classifier(identity_kraus(2), Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), (0, 1)))


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic():
    a = sample_outcomes(DEMO, SIGMA, 5000, seed=42)
    b = sample_outcomes(DEMO, SIGMA, 5000, seed=42)
    assert np.array_equal(a, b)
    c = sample_outcomes(DEMO, SIGMA, 5000, seed=43)
    assert not np.array_equal(a, c)


def test_sampling_deterministic_distribution():
    counts = sample_outcomes(computational_classifier(), SIGMA, 100, seed=1)
    assert tuple(counts) == (100, 0)


def test_sampling_concentrates():
    # Empirical top-class frequency lands within 0.01 of 0.9 for >= 99% of
    # seeds at N = 1e5 (binomial std ~ 0.001).
    hits = 0
    n_seeds = 1000
    for seed in range(n_seeds):
        counts = sample_outcomes(DEMO, SIGMA, 100_000, seed)
        if abs(counts[0] / 100_000 - 0.9) < 0.01:
            hits += 1
    assert hits >= 990


# ---------------------------------------------------------------------------
# Hoeffding bounds


def test_hoeffding_frozen_example():
    est = hoeffding_bounds([950, 50], 1000, 0.001)
    assert est.pA_lower == pytest.approx(0.891230299988, abs=1e-9)
    assert est.k_a == 0 and est.k_b == 1
    assert est.pB_upper == pytest.approx(0.05 + 0.05877, abs=1e-4)


def test_hoeffding_bounds_break_ties_toward_lowest_index():
    est = hoeffding_bounds([5, 5, 0], 10, 0.1)
    assert (est.k_a, est.k_b) == (0, 1)
    est = hoeffding_bounds([0, 7, 7], 14, 0.1)
    assert (est.k_a, est.k_b) == (1, 2)


def test_hoeffding_margin_limits():
    assert hoeffding_margin(1000, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-6)
    assert hoeffding_margin(10**12, 0.001) == pytest.approx(0.0, abs=1e-4)


def test_hoeffding_clipping_flag():
    est = hoeffding_bounds([2, 0], 2, 0.001)
    assert est.clipped and est.pA_lower == 0.0
    est2 = hoeffding_bounds([950, 50], 1000, 0.05)
    assert not est2.clipped


def test_hoeffding_input_checks():
    with pytest.raises(ValueError):
        hoeffding_bounds([3, 1], 5, 0.1)
    with pytest.raises(ValueError):
        hoeffding_bounds([3, 2], 5, 1.5)


def test_abstention_monotone_in_n_and_epsilon():
    # At fixed empirical frequencies, shrinking N or epsilon only lowers the
    # bound, so an ABSTAIN can never flip into a certificate.
    for frac in (0.52, 0.6, 0.75):
        for n, eps in ((4000, 0.01), (1000, 0.01), (1000, 0.001), (250, 0.0005)):
            big = hoeffding_bounds([int(frac * 20000), 20000 - int(frac * 20000)], 20000, 0.05)
            small = hoeffding_bounds([int(frac * n), n - int(frac * n)], n, eps)
            assert small.pA_lower <= big.pA_lower + 1e-12
            if big.pA_lower <= 0.5:
                assert small.pA_lower <= 0.5


# ---------------------------------------------------------------------------
# certification pipeline


def test_certificate_on_demo_classifier():
    cert = certify(DEMO, SIGMA, 100_000, 0.001, seed=7)
    assert not cert.abstained
    assert cert.label == 0
    assert cert.pA_lower > 0.5
    assert cert.radii.r_qht_pure == pytest.approx(0.44, abs=0.01)
    assert cert.radii.r_hoelder == pytest.approx(cert.pA_lower - 0.5, abs=1e-12)
    assert cert.pB_upper == pytest.approx(1.0 - cert.pA_lower, abs=1e-12)


def test_protocol_radius_formula():
    # pA_lower = 0.891230299988 gives R = sqrt(1/2 - sqrt(pA(1-pA))).
    pa = 0.891230299988
    assert radius_qht_pure(pa, 1.0 - pa) == pytest.approx(0.4343385224, abs=1e-9)
    assert math.sqrt(0.5 - math.sqrt(pa * (1 - pa))) == pytest.approx(0.4343385224, abs=1e-9)


def test_certificates_are_reproducible():
    a = certify(DEMO, SIGMA, 10_000, 0.01, seed=5)
    b = certify(DEMO, SIGMA, 10_000, 0.01, seed=5)
    assert certificate_to_json(a) == certificate_to_json(b)
    assert json.dumps(certificate_to_json(a), sort_keys=True) == json.dumps(
        certificate_to_json(b), sort_keys=True
    )


def _pinned_inputs(d: int, kind: str):
    """A diagonal-POVM classifier and a benign state with exact entries, so
    the pins need no libm: class 0 gets 0.64 (pure) or 0.8 (mixed) at d = 2
    and 0.75 or 0.7 at d = 4, where classes 2 and 3 share one element."""
    weights = np.eye(2) if d == 2 else [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]
    cl = Classifier(identity_kraus(d), Povm(tuple(np.diag(w) for w in weights)))
    if kind == "mixed":
        return cl, depolarize(PureState(np.eye(d)[0]).density(), 0.4)
    amplitudes = [0.8, 0.6] if d == 2 else [np.sqrt(0.75)] + [np.sqrt(1.0 / 12.0)] * 3
    return cl, PureState(amplitudes).density()


_CERTIFICATE_PINS = {
    (2, "pure", "protocol"): "ea2b1649f1c948e09b7363b54fa9fc009759d905b6366a60c9b4704bfcbf5bc8",
    (2, "pure", "extended"): "691dcfa2389f6c4d2b04d17654c8adea5b760ff14df072091702ee18dca33cd1",
    (2, "pure", "smoothed"): "43e3d19a51cff8b008377dbb91894e37e955cc09eb4443bec66f036c84eccca7",
    (2, "mixed", "protocol"): "a0533dea594822efab4900ed21578dad44f258ddec8b1dcfa6e87be186decba7",
    (2, "mixed", "extended"): "78edbd6492e6c665ec62944a6b46f1c274d3a0a1fb6ae7eef683feb98873dd93",
    (2, "mixed", "smoothed"): "1f4739e6f75154df2ae26b1e762121f245cc3c059ce6404195943e7af2c515f0",
    (4, "pure", "protocol"): "bd3e33a233b079b533bc828890c30134c1fafe2b836984c71d87741e2077faf7",
    (4, "pure", "extended"): "0496e817dd2a8e1ee70e5b99ed50207266d605f5ac88900a59c4e08c974e51cf",
    (4, "pure", "smoothed"): "157d484d9ad979266a356f5ffa7a00c963eba9cf9ba05854d48e881b1dbb41cb",
    (4, "mixed", "protocol"): "b1b6dc8dfc40699495bd2af29251dc70b3b498d32a3c57d6da3e5e59790744db",
    (4, "mixed", "extended"): "514e1cd21a9b7fdd34b4869bc756b8127750a348ec0ccb4e1ca409de4e32f738",
    (4, "mixed", "smoothed"): "8acf93dc43545802ad223f6454e40850858ebfbf38f071b49c781bce44a5d432",
}


@pytest.mark.parametrize("d,kind,mode", sorted(_CERTIFICATE_PINS))
def test_certificate_is_pinned(d, kind, mode):
    # Certificates must stay bit-reproducible across versions: the canonical
    # sha256 of each record, radii and input hashes included, is pinned.
    cl, sigma = _pinned_inputs(d, kind)
    if mode == "smoothed":
        cert = certify_smoothed(cl, sigma, 0.2, 20_000, 0.01, seed=7)
    else:
        cert = certify(cl, sigma, 20_000, 0.01, seed=7, mode=mode)
    assert not cert.abstained
    assert serialize.content_hash(certificate_to_json(cert)) == _CERTIFICATE_PINS[d, kind, mode]


def test_balanced_classifier_abstains():
    cert = certify(demo.balanced_classifier(), SIGMA, 10_000, 0.01, seed=1)
    assert cert.abstained
    assert cert.radii is None


def test_mixed_benign_state_keeps_only_hoelder():
    cert = certify(computational_classifier(), depolarize(SIGMA, 0.1), 100_000, 0.001, seed=2)
    assert not cert.abstained
    assert cert.radii.r_qht_pure is None
    assert cert.radii.r_hoelder is not None


def test_extended_mode_uses_measured_runner_up():
    # With three classes the runner-up estimate is sharper than the protocol
    # tie pB = 1 - pA, which enlarges the certified radius.
    psi = PureState(np.sqrt([0.7, 0.15, 0.15]))
    povm = Povm(tuple(np.diag(row) for row in np.eye(3)), (0, 1, 2))
    cl = Classifier(identity_kraus(3), povm)
    cert = certify(cl, psi.density(), 100_000, 0.001, seed=7, mode="extended")
    assert not cert.abstained
    assert cert.mode == "extended"
    assert cert.pB_upper < 1.0 - cert.pA_lower
    assert cert.radii.r_qht_pure > radius_qht_pure(cert.pA_lower, 1.0 - cert.pA_lower)


def test_certificate_json_fields():
    record = certificate_to_json(certify(DEMO, SIGMA, 1000, 0.05, seed=3))
    for key in ("label", "pA_lower", "pB_upper", "epsilon", "n_shots", "seed",
                "abstained", "radii", "version", "classifier_hash", "state_hash"):
        assert key in record
    assert record["version"] == "0.1.0"
    assert len(record["classifier_hash"]) == 64


def test_certificate_version_is_package_version():
    assert certificate_to_json(certify(DEMO, SIGMA, 1000, 0.05, seed=3))["version"] == qhtcert.__version__


def test_certificate_soundness_composition():
    cert = certify(DEMO, SIGMA, 100_000, 0.001, seed=7)
    r = cert.radii.r_qht_pure
    rng = philox(11)
    for _ in range(15):
        t = float(rng.uniform(0.2, 1.0)) * (r - 1e-4)
        theta = 2.0 * math.asin(t)
        rho = PureState.bloch(theta, float(rng.uniform(0, 2 * math.pi))).density()
        assert certify_condition(SIGMA, rho, cert.pA_lower, 1.0 - cert.pA_lower)


# ---------------------------------------------------------------------------
# smoothed certification


def test_smoothed_certificate_radii():
    # Computational classifier on |0> smoothed at p = 0.2 has true top
    # probability 0.9, so the radii approach (sqrt(0.45), 0.5, 0.25).
    cert = certify_smoothed(computational_classifier(), SIGMA, 0.2, 1_000_000, 0.999999, seed=11)
    assert not cert.abstained
    assert cert.smoothing_p == 0.2
    assert cert.radii.r_depol_qht == pytest.approx(math.sqrt(0.45), abs=0.01)
    assert cert.radii.r_depol_hoelder == pytest.approx(0.5, abs=0.01)
    assert cert.radii.r_depol_dp == pytest.approx(0.25, abs=0.01)
    assert not cert.covers_all_states


def test_smoothed_reduces_to_unsmoothed_as_p_vanishes():
    smoothed = certify_smoothed(DEMO, SIGMA, 1e-9, 200_000, 0.001, seed=13)
    plain = certify(DEMO, SIGMA, 200_000, 0.001, seed=13)
    assert smoothed.radii.r_depol_qht == pytest.approx(plain.radii.r_qht_pure, abs=2e-3)
    assert smoothed.radii.r_depol_hoelder == pytest.approx(plain.radii.r_hoelder, abs=2e-3)


def test_smoothed_whole_sphere_flag():
    # Lucky all-one-class draw at tiny N pushes pA_lower past the saturation
    # threshold (4-3p)/(4-2p); the certificate then covers every state.
    cert = certify_smoothed(computational_classifier(), SIGMA, 0.1, 50, 0.99, seed=0)
    assert cert.counts[0] == 50
    assert cert.pA_lower > (4 - 3 * 0.1) / (4 - 2 * 0.1)
    assert cert.covers_all_states
    assert cert.radii.r_depol_qht == 1.0
    # A numpy float p still yields a Python bool, so the record stays JSON-ready.
    record = certificate_to_json(certify_smoothed(computational_classifier(), SIGMA, np.float64(0.1), 50, 0.99, seed=0))
    assert record["covers_all_states"] is True
    json.dumps(record)


def test_smoothed_fallback_beyond_qubit():
    psi = PureState([1.0, 0.0, 0.0])
    povm = Povm((np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])), (0, 1))
    cl = Classifier(identity_kraus(3), povm)
    cert = certify_smoothed(cl, psi.density(), 0.2, 100_000, 0.01, seed=4)
    assert cert.radii.r_depol_qht == radius_depol_qht(cert.pA_lower, 0.2, 3)
    assert cert.radii.r_depol_qht == pytest.approx(
        _smoothed_boundary_generic(psi.density(), 0.2, cert.pA_lower), abs=1e-9
    )
    assert cert.radii.r_depol_dp is None
    assert "generic_fallback" not in certificate_to_json(cert)


def test_smoothed_whole_space_flag_beyond_qubit():
    # A channel that replaces every input by |0>: every shot lands in class 0,
    # pA_lower passes the d = 3 saturation threshold, and the radius is 1.
    replace = Channel(tuple(np.outer(np.eye(3)[0], np.eye(3)[j]) for j in range(3)))
    povm = Povm((np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])), (0, 1))
    cert = certify_smoothed(Classifier(replace, povm), PureState([1.0, 0.0, 0.0]).density(), 0.2, 100_000, 0.01, seed=4)
    assert cert.pA_lower == pytest.approx(0.9952, abs=1e-4)
    assert cert.radii.r_depol_qht == 1.0
    assert cert.covers_all_states


def test_smoothed_one_dimensional_input_is_out_of_regime():
    cl = Classifier(identity_kraus(1), Povm((np.array([[1.0]]), np.array([[0.0]])), (0, 1)))
    with pytest.raises(OutOfRegime):
        certify_smoothed(cl, PureState([1.0]).density(), 0.2, 1000, 0.01, seed=0)


@pytest.mark.parametrize(
    ("call", "fragment"),
    [
        pytest.param(lambda: sample_outcomes(DEMO, SIGMA, 0, seed=1), "n_shots must be >= 1", id="sample-outcomes-no-shots"),
        pytest.param(lambda: certify(DEMO, SIGMA, 1000, 0.01, seed=1, mode="strict"), "mode must be", id="certify-unknown-mode"),
        pytest.param(lambda: certify_smoothed(DEMO, SIGMA, 0.0, 1000, 0.01, seed=1), r"p must lie in \(0, 1\)", id="smoothed-p-0"),
        pytest.param(lambda: certify_smoothed(DEMO, SIGMA, 1.0, 1000, 0.01, seed=1), r"p must lie in \(0, 1\)", id="smoothed-p-1"),
        pytest.param(lambda: hoeffding_bounds([5], 5, 0.1), "at least two non-negative integers", id="hoeffding-one-count"),
        pytest.param(lambda: hoeffding_bounds([7, -2], 5, 0.1), "at least two non-negative integers", id="hoeffding-negative-count"),
        pytest.param(lambda: hoeffding_bounds([2.5, 2.5], 5, 0.1), "at least two non-negative integers", id="hoeffding-float-counts"),
        pytest.param(lambda: hoeffding_bounds([0, 0], 0, 0.1), "n_shots must be >= 1", id="hoeffding-no-shots"),
        pytest.param(lambda: hoeffding_margin(0, 0.1), "n_shots must be >= 1", id="margin-no-shots"),
        pytest.param(lambda: hoeffding_margin(100, 0.0), r"epsilon must lie in \(0, 1\)", id="margin-epsilon-0"),
        pytest.param(lambda: hoeffding_margin(100, 2.0), r"epsilon must lie in \(0, 1\)", id="margin-epsilon-2"),
        pytest.param(lambda: certify(DEMO, SIGMA, 10.5, 0.01, seed=1), "n_shots must be >= 1", id="certify-float-shots"),
        pytest.param(lambda: certify(DEMO, SIGMA, True, 0.01, seed=1), "n_shots must be >= 1", id="certify-bool-shots"),
        pytest.param(lambda: certify(DEMO, SIGMA, 1000, 0.01, seed=1.5), "seed must be a non-negative integer", id="certify-float-seed"),
        pytest.param(lambda: brute_force_min_beta(SIGMA, SIGMA, 0.1, samples=1000.0), "samples=1000.0", id="oracle-float-samples"),
        pytest.param(lambda: boundary_radius_search(0.9, 0.1, demo.benign_state(), samples=2.0), "samples=2.0", id="boundary-float-samples"),
        pytest.param(lambda: hoeffding_coverage(DEMO, SIGMA, 1000.0, 100, 0.1), "trials=1000.0", id="coverage-float-trials"),
        pytest.param(lambda: hoeffding_coverage(DEMO, SIGMA, 1000, 100.0, 0.1), "n_shots must be >= 1", id="coverage-float-shots"),
    ],
)
def test_certification_input_raises_a_typed_error(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


def test_numpy_integers_are_accepted():
    want = certificate_to_json(certify(DEMO, SIGMA, 1000, 0.01, seed=3))
    assert certificate_to_json(certify(DEMO, SIGMA, np.int64(1000), 0.01, seed=np.uint32(3))) == want
    assert hoeffding_bounds(np.array([7, 3], dtype=np.uint8), np.int32(10), 0.1) == hoeffding_bounds([7, 3], 10, 0.1)


def test_smoothed_d4_runs_no_condition_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("certify_smoothed ran a threshold search")

    monkeypatch.setattr(importlib.import_module("qhtcert.helstrom"), "_tau_search", forbidden)
    povm = Povm((np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0, 1.0])), (0, 1))
    cl = Classifier(identity_kraus(4), povm)
    for p in (0.1, 0.2):
        cert = certify_smoothed(cl, PureState([1.0, 0.0, 0.0, 0.0]).density(), p, 1000, 0.01, seed=1)
        assert cert.radii.r_depol_qht == radius_depol_qht(cert.pA_lower, p, 4)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("p", [0.2, 0.5])
@pytest.mark.parametrize("p_a", [0.7, 0.85])
def test_smoothed_fallback_radius_holds_outside_its_plane(d, p, p_a):
    # The reference search bisects in one 2-plane at phase 0; for pure pairs
    # the smoothed condition depends only on the overlap, so its radius must
    # separate certified from uncertified states in any other plane too.
    rng = philox(d)
    psi = random_pure(d, rng).amplitudes
    sigma = PureState(psi).density()
    r = _smoothed_boundary_generic(sigma, p, p_a)
    smoothed_sigma = depolarize(sigma, p)
    for _ in range(3):
        v = random_pure(d, rng).amplitudes
        v = v - np.vdot(psi, v) * psi
        v = v / np.linalg.norm(v)
        for dist, certified in ((r - 1e-4, True), (r + 1e-4, False)):
            rho = PureState(math.sqrt(1.0 - dist**2) * psi + dist * v).density()
            assert trace_distance(sigma, rho) == pytest.approx(dist, abs=1e-9)
            assert certify_condition(smoothed_sigma, depolarize(rho, p), p_a, 1.0 - p_a) is certified


def test_smoothed_mixed_input_keeps_hoelder_only():
    skewed = depolarize(SIGMA, 0.3)
    cert = certify_smoothed(computational_classifier(), skewed, 0.2, 50_000, 0.01, seed=6)
    assert not cert.abstained
    assert cert.radii.r_depol_qht is None
    assert cert.radii.r_depol_dp is None
    assert cert.radii.r_depol_hoelder is not None


def test_generic_smoothed_boundary_matches_closed_form():
    from qhtcert import radius_depol_qht

    for p, p_a in ((0.2, 0.8), (0.5, 0.7)):
        generic = _smoothed_boundary_generic(SIGMA, p, p_a)
        assert generic == pytest.approx(radius_depol_qht(p_a, p), abs=1e-6)

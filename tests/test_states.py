import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhtcert import (
    Channel,
    DensityMatrix,
    Povm,
    PureState,
    apply_channel,
    certify,
    depolarize,
    depolarizing_kraus,
    identity_kraus,
    is_rank_one,
    trace_distance,
    validate_density,
)
from qhtcert import demo, serialize
from qhtcert.errors import (
    DimMismatch,
    NotHermitian,
    NotPSD,
    NotTracePreserving,
    TraceNotOne,
)
from qhtcert.helstrom import _Route

from conftest import philox, random_channel, random_density, random_povm, random_pure


# ---------------------------------------------------------------------------
# validate_density


def test_maximally_mixed_is_valid():
    dm = validate_density(np.eye(2) / 2)
    assert dm.dim == 2
    assert np.allclose(dm.matrix, np.eye(2) / 2)


def test_pure_projector_is_valid():
    dm = validate_density(np.diag([1.0, 0.0]))
    assert is_rank_one(dm)


def test_trace_violation_reports_residual():
    with pytest.raises(TraceNotOne) as exc:
        validate_density(np.diag([0.6, 0.6]))
    assert exc.value.residual == pytest.approx(0.2, abs=1e-12)


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_negative_eigenvalue_rejected():
    with pytest.raises(NotPSD) as exc:
        validate_density(np.diag([1.5, -0.5]))
    assert exc.value.residual == pytest.approx(0.5, abs=1e-12)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        validate_density(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# trace distance


def test_trace_distance_trivials():
    zero = PureState([1.0, 0.0]).density()
    one = PureState([0.0, 1.0]).density()
    assert trace_distance(zero, zero) == 0.0
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_pure_pair_angle():
    # T = sqrt(1 - F) for pure states; F = cos^2(pi/6) = 3/4 at theta = pi/3.
    zero = PureState([1.0, 0.0]).density()
    tilted = PureState.bloch(np.pi / 3, 0.0).density()
    assert trace_distance(zero, tilted) == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_dim_mismatch():
    with pytest.raises(DimMismatch):
        trace_distance(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3))


@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_distance_measures_ranges_and_symmetry(seed, d):
    rng = philox(seed)
    a, b = random_density(d, rng), random_density(d, rng)
    t_ab, t_ba = trace_distance(a, b), trace_distance(b, a)
    assert 0.0 <= t_ab <= 1.0
    assert t_ab == pytest.approx(t_ba, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_fuchs_van_de_graaf_equality_for_pure_states(seed, d):
    rng = philox(seed)
    a, b = random_pure(d, rng), random_pure(d, rng)
    t = trace_distance(a.density(), b.density())
    f = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    assert t == pytest.approx(np.sqrt(1.0 - f), abs=1e-10)


# ---------------------------------------------------------------------------
# channels and depolarization


def test_identity_channel_is_noop(rng):
    dm = random_density(3, rng)
    out = apply_channel(identity_kraus(3), dm)
    assert np.allclose(out.matrix, dm.matrix, atol=1e-12)


@pytest.mark.parametrize("dim", [0, -1, 2.0, True])
def test_channels_take_positive_integer_dimensions(dim):
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        depolarizing_kraus(0.1, dim)
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        identity_kraus(dim)


def test_depolarizing_kraus_matches_affine_form():
    zero = PureState([1.0, 0.0]).density()
    via_kraus = apply_channel(depolarizing_kraus(0.2, 2), zero)
    assert np.allclose(via_kraus.matrix, depolarize(zero, 0.2).matrix, atol=1e-12)


def test_depolarize_endpoints(rng):
    dm = random_density(2, rng)
    assert np.allclose(depolarize(dm, 0.0).matrix, dm.matrix)
    assert np.allclose(depolarize(dm, 1.0).matrix, np.eye(2) / 2)
    with pytest.raises(ValueError):
        depolarize(dm, 1.5)


@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_depolarize_contracts_trace_distance(seed, p):
    rng = philox(seed)
    a, b = random_density(2, rng), random_density(2, rng)
    lhs = trace_distance(depolarize(a, p), depolarize(b, p))
    assert lhs == pytest.approx((1.0 - p) * trace_distance(a, b), abs=1e-10)


@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_random_channels_preserve_state_validity(seed, d):
    rng = philox(seed)
    ch = random_channel(d, d, 1 + int(rng.integers(3)), rng)
    out = apply_channel(ch, random_density(d, rng))
    assert abs(np.trace(out.matrix) - 1.0) < 1e-9
    assert np.linalg.eigvalsh(out.matrix)[0] > -1e-9


def test_channel_rejects_non_trace_preserving():
    with pytest.raises(NotTracePreserving):
        Channel((np.eye(2) * 0.5,))


def test_channel_dim_mismatch():
    with pytest.raises(DimMismatch):
        apply_channel(identity_kraus(2), DensityMatrix(np.eye(3) / 3))


# ---------------------------------------------------------------------------
# pure states and POVMs


def test_pure_state_norm_enforced():
    with pytest.raises(ValueError):
        PureState([1.0, 1.0])


def test_pure_state_rejects_nan_amplitudes():
    # abs(nan - 1) > TOL is False, so the norm check alone lets NaN through.
    with pytest.raises(ValueError, match="finite"):
        PureState([np.nan, 0.0])
    with pytest.raises(ValueError, match="finite"):
        serialize.pure_from_json(json.loads('{"amplitudes_re": [NaN, 0.0], "amplitudes_im": [0.0, 0.0]}'))


def test_pure_state_round_trip(rng):
    psi = random_pure(3, rng)
    back = PureState.from_density(psi.density())
    assert abs(abs(np.vdot(psi.amplitudes, back.amplitudes)) - 1.0) < 1e-10


def test_from_density_rejects_mixed():
    with pytest.raises(ValueError):
        PureState.from_density(DensityMatrix(np.eye(2) / 2))


def test_rank_one_detection(rng):
    assert is_rank_one(random_pure(4, rng).density()) is True
    assert is_rank_one(DensityMatrix(np.eye(2) / 2)) is False
    # A bare zero matrix has no positive diagonal entry to factor from.
    zero = DensityMatrix(np.zeros((3, 3)))
    assert is_rank_one(zero) is False
    with pytest.raises(ValueError, match="not rank one"):
        PureState.from_density(zero)


def test_near_pure_sigma_is_mixed_for_every_caller():
    # Second eigenvalue 1e-10: ||sigma - psi psi^H||_F = 1e-10 is above RANK_ONE_TOL,
    # so no radius that needs a pure benign state may be reported.
    sigma = validate_density(np.diag([1.0 - 1e-10, 1e-10]))
    assert is_rank_one(sigma) is False
    with pytest.raises(ValueError, match="not rank one"):
        PureState.from_density(sigma)
    assert _Route(sigma, sigma).pencil is None
    radii = certify(demo.hemisphere_classifier(), sigma, 100_000, 1e-3, 0).radii
    assert radii.r_qht_pure is None
    assert radii.r_hoelder == pytest.approx(0.3946130299988, abs=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 4, 16, 64]),
    log_eps=st.one_of(st.none(), st.floats(-16.0, -6.0)),
)
@settings(max_examples=80, deadline=None)
def test_purity_rule_is_shared(seed, d, log_eps):
    # Exact pure states (log_eps None) and mixtures (1 - eps) psi psi^H + eps tau.
    rng = philox(seed)
    psi = random_pure(d, rng)
    sigma = psi.density()
    if log_eps is not None:
        eps = 10.0**log_eps
        sigma = DensityMatrix((1.0 - eps) * sigma.matrix + eps * random_density(d, rng).matrix)
    pure = is_rank_one(sigma)
    assert type(pure) is bool
    assert (_Route(sigma, sigma).pencil is not None) is pure
    try:
        back = PureState.from_density(sigma)
    except ValueError:
        assert not pure
        return
    assert pure
    assert np.max(np.abs(back.density().matrix - sigma.matrix)) <= 1e-12
    if log_eps is None:
        phase = np.vdot(psi.amplitudes, back.amplitudes)
        assert np.max(np.abs(back.amplitudes - phase * psi.amplitudes)) <= 1e-12


def test_povm_requires_completeness():
    with pytest.raises(NotTracePreserving):
        Povm((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])))


def test_povm_rejects_element_above_one():
    with pytest.raises(NotPSD):
        Povm((np.eye(2) * 1.5, np.eye(2) * -0.5))


@pytest.mark.parametrize(
    ("build", "error", "fragment"),
    [
        pytest.param(lambda: DensityMatrix(np.zeros(4)), ValueError, "2-d array", id="matrix-not-2d"),
        pytest.param(lambda: DensityMatrix([[np.inf, 0.0], [0.0, 0.0]]), ValueError, "finite", id="matrix-not-finite"),
        pytest.param(lambda: PureState(np.eye(2)), ValueError, "1-d vector", id="amplitudes-not-1d"),
        pytest.param(lambda: Channel(()), ValueError, "at least one Kraus", id="kraus-empty"),
        pytest.param(lambda: Channel((np.eye(2), np.eye(3))), DimMismatch, "one shape", id="kraus-mixed-shapes"),
        pytest.param(lambda: Povm(()), ValueError, "at least one element", id="povm-empty"),
        pytest.param(lambda: Povm((np.ones((2, 3)) / 3.0,)), DimMismatch, "square", id="povm-not-square"),
        pytest.param(
            lambda: Povm((np.array([[0.5, 0.1], [0.0, 0.5]]), np.array([[0.5, -0.1], [0.0, 0.5]]))),
            NotHermitian,
            "not Hermitian",
            id="povm-not-hermitian",
        ),
        pytest.param(
            lambda: Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), (0, 1, 2)),
            ValueError,
            "one label per POVM element",
            id="povm-label-count",
        ),
        # 1 == True: labels that compare equal name one class.
        pytest.param(
            lambda: Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), (1, True)),
            ValueError,
            "labels must be distinct",
            id="povm-labels-compare-equal",
        ),
        pytest.param(lambda: depolarizing_kraus(-0.1), ValueError, r"\[0, 1\]", id="depolarizing-kraus-p-below-0"),
        pytest.param(lambda: depolarizing_kraus(1.5), ValueError, r"\[0, 1\]", id="depolarizing-kraus-p-above-1"),
    ],
)
def test_malformed_input_raises_a_typed_error(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_povm_is_complete(seed):
    rng = philox(seed)
    povm = random_povm(3, 4, rng)
    assert np.allclose(sum(povm.elements), np.eye(3), atol=1e-9)

import hashlib
import importlib
import math

import numpy as np
import pytest

from qhtcert import (
    PureState,
    boundary_radius_search,
    brute_force_min_beta,
    certify_condition,
    depolarize,
    helstrom,
    hoeffding_coverage,
    radius_qht_pure,
    random_density,
    random_pure,
)
from qhtcert import demo
from qhtcert.errors import DimMismatch, InvalidProbabilityOrder, OutOfRegime, RegimeTooLarge
from qhtcert.helstrom import _condition_margin
from qhtcert.oracle import _smoothed_boundary_generic, sample_test_operators

from conftest import philox

helstrom_module = importlib.import_module("qhtcert.helstrom")
oracle_module = importlib.import_module("qhtcert.oracle")

SIGMA = demo.benign_state().density()
RHO = demo.adversarial_state().density()


# ---------------------------------------------------------------------------
# brute-force minimal type-II error


def test_brute_force_converges_to_optimum():
    report = brute_force_min_beta(SIGMA, RHO, 0.1, samples=100_000, seed=5)
    optimal = helstrom(RHO, SIGMA, 0.1).beta
    assert report.best_value >= optimal - 1e-8
    assert report.best_value == pytest.approx(optimal, abs=0.01)
    assert report.samples_used == 100_000
    assert report.argmin_description["alpha"] <= 0.1 + 1e-9


def test_brute_force_equal_states():
    # With rho = sigma every test has beta = 1 - alpha, so the floor is
    # 1 - alpha_target.
    report = brute_force_min_beta(SIGMA, SIGMA, 0.1, samples=2_000, seed=3)
    assert report.best_value == pytest.approx(0.9, abs=2e-3)


def test_brute_force_orthogonal_states():
    one = PureState([0.0, 1.0]).density()
    report = brute_force_min_beta(SIGMA, one, 0.2, samples=20_000, seed=9)
    assert report.best_value == pytest.approx(0.0, abs=0.01)


def test_brute_force_never_beats_constructed_test(rng):
    for d in (2, 3):
        for _ in range(3):
            sigma, rho = random_density(d, rng), random_density(d, rng)
            for alpha0 in (0.1, 0.5, 0.9):
                report = brute_force_min_beta(sigma, rho, alpha0, samples=5_000, seed=21)
                assert report.best_value >= helstrom(rho, sigma, alpha0).beta - 1e-8


def test_brute_force_regime_checks(rng):
    big = random_density(5, rng)
    with pytest.raises(RegimeTooLarge):
        brute_force_min_beta(big, big, 0.1, samples=2_000)
    with pytest.raises(ValueError):
        brute_force_min_beta(SIGMA, RHO, 0.1, samples=100)


def test_brute_force_is_deterministic():
    a = brute_force_min_beta(SIGMA, RHO, 0.3, samples=2_000, seed=17)
    b = brute_force_min_beta(SIGMA, RHO, 0.3, samples=2_000, seed=17)
    assert a == b


def test_brute_force_draws_are_pinned():
    # The value the search had when it still built every test operator; a
    # change of the Philox draws or of their mapping onto tests moves it.
    report = brute_force_min_beta(SIGMA, RHO, 0.3, samples=2_000, seed=17)
    assert report.best_value == pytest.approx(0.20721900806669202, abs=1e-12)


def operator_min_beta(sigma, rho, alpha0, samples, seed, batch):
    """The search as an operator loop: build each batch of tests with
    sample_test_operators and take beta and alpha as traces of the best one."""
    target = max(alpha0 - 1e-6, alpha0 * (1.0 - 1e-3))
    rng = philox(seed)
    best, best_alpha, done = math.inf, math.nan, 0
    while done < samples:
        n = min(batch, samples - done)
        m = sample_test_operators(sigma.dim, n, target, sigma.matrix, rng)
        beta = 1.0 - np.real(np.einsum("ij,nji->n", rho.matrix, m))
        i = int(np.argmin(beta))
        if beta[i] < best:
            best, best_alpha = float(beta[i]), float(np.real(np.einsum("ij,ji->", sigma.matrix, m[i])))
        done += n
    return best, best_alpha


def brute_force_pair(d, kind, rng):
    if kind == "pure":
        return random_pure(d, rng).density(), random_pure(d, rng).density()
    if kind == "mixed":
        return random_density(d, rng), random_density(d, rng)
    if kind == "equal":
        sigma = random_density(d, rng)
        return sigma, sigma
    psi = random_pure(d, rng).amplitudes
    return PureState(psi).density(), PureState(orthogonal_partner(psi, rng)).density()


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("kind", ("pure", "mixed", "equal", "orthogonal"))
def test_brute_force_matches_operator_search(d, kind):
    rng = philox(700 + d)
    for alpha0 in (0.0, 0.05, 0.5, 1.0):
        sigma, rho = brute_force_pair(d, kind, rng)
        seed = int(rng.integers(1 << 30))
        # 5 000 samples in batches of 1 500: the last batch is partial.
        report = brute_force_min_beta(sigma, rho, alpha0, samples=5_000, seed=seed, batch=1_500)
        best, best_alpha = operator_min_beta(sigma, rho, alpha0, 5_000, seed, 1_500)
        assert report.best_value == pytest.approx(best, abs=1e-12)
        assert report.argmin_description["alpha"] == pytest.approx(best_alpha, abs=1e-12)


def rotated(eigenvalues, rng):
    """Hermitian stack U diag(eigenvalues) U^H with Haar-random unitaries U."""
    n, d = eigenvalues.shape
    q, r = np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    u = q * (diagonal / np.abs(diagonal))[:, None, :]
    h = np.einsum("nij,nj,nkj->nik", u, eigenvalues, u.conj())
    return (h + h.conj().transpose(0, 2, 1)) / 2.0


def diagonal_stack(eigenvalues):
    h = np.zeros(eigenvalues.shape + eigenvalues.shape[-1:], complex)
    h[:, range(eigenvalues.shape[1]), range(eigenvalues.shape[1])] = eigenvalues
    return h


def entries_of(h):
    """The rows h_ii, Re h_ij, Im h_ij (i < j) of a Hermitian stack, laid out
    as oracle._draw_entries returns them."""
    d = h.shape[-1]
    rows, cols = np.triu_indices(d, 1)
    upper = h[:, rows, cols].T
    return np.concatenate([np.diagonal(h, axis1=1, axis2=2).real.T, upper.real, upper.imag])


def spectrum_test_stacks(d, rng):
    def draws(dim, n, rng):
        return oracle_module._hermitian_stack(oracle_module._draw_entries(dim, n, rng))

    yield draws(d, 2_000, rng)
    yield 1e3 * draws(d, 50, rng)
    yield diagonal_stack(rng.standard_normal((50, d)))
    if d < 2:
        return
    # Repeated, nearly repeated, and gaps across the guard's threshold.
    for gap in (np.zeros(100), np.full(100, 1e-7), 10.0 ** rng.uniform(-3.0, 0.0, 100)):
        # Half the rows with a (nearly) repeated top eigenvalue, half with a
        # (nearly) repeated bottom one, over a shift of order 10.
        w = np.sort(rng.standard_normal((100, d)), axis=1)
        w[:50, -2] = w[:50, -1] - gap[:50]
        w[50:, 1] = w[50:, 0] + gap[50:]
        w += 10.0 * rng.standard_normal((100, 1))
        yield diagonal_stack(w)
        yield rotated(w, rng)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_spectrum_ends_match_eigvalsh(d):
    rng = philox(37 + d)
    scalar = np.einsum("n,ij->nij", rng.standard_normal(50), np.eye(d)).astype(complex)
    for h in (*spectrum_test_stacks(d, rng), scalar):
        lo, hi = oracle_module._spectrum_ends(entries_of(h))
        w = np.linalg.eigvalsh(h)
        tol = 1e-14 * np.maximum(np.abs(w).max(axis=1), 1.0)
        assert np.all(np.abs(lo - w[:, 0]) <= tol)
        assert np.all(np.abs(hi - w[:, -1]) <= tol)
        # The safe side: the mapped test stays inside [0, 1].
        assert np.all(lo <= w[:, 0] + tol) and np.all(hi >= w[:, -1] - tol)
    # The last stack is proportional to 1: a spectrum of zero width.
    assert np.array_equal(lo, hi)


def test_brute_force_pinned_at_d4():
    # The value the search had when it took the spectrum ends from eigvalsh.
    sigma, rho = random_density(4, philox(41)), random_density(4, philox(42))
    report = brute_force_min_beta(sigma, rho, 0.2, samples=20_000, seed=43)
    assert report.best_value == pytest.approx(0.5154723082807184, abs=1e-12)


def test_brute_force_sends_few_rows_to_eigvalsh(monkeypatch):
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a):
        rows.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    sigma, rho = random_density(4, philox(41)), random_density(4, philox(42))
    brute_force_min_beta(sigma, rho, 0.2, samples=20_000, seed=43)
    assert sum(rows) <= 20


@pytest.mark.parametrize("target", (-0.1, 1.5, math.nan))
def test_sample_test_operators_rejects_target_outside_unit_interval(target):
    with pytest.raises(ValueError, match="alpha_target"):
        sample_test_operators(2, 10, target, SIGMA.matrix, philox(1))


@pytest.mark.parametrize("sigma", (np.eye(3) / 3.0, np.ones(2) / 2.0))
def test_sample_test_operators_rejects_mismatched_sigma(sigma):
    with pytest.raises(DimMismatch):
        sample_test_operators(2, 10, 0.3, sigma, philox(1))


@pytest.mark.parametrize(("dim", "n", "named"), ((0, 3, "dim=0"), (-1, 3, "dim=-1"), (2, 0, "n=0"), (2, -1, "n=-1")))
def test_sample_test_operators_rejects_empty_requests(dim, n, named):
    with pytest.raises(ValueError, match=named):
        sample_test_operators(dim, n, 0.3, np.eye(max(dim, 1)) / max(dim, 1), philox(1))


def test_brute_force_names_too_few_samples():
    with pytest.raises(ValueError, match="samples=999"):
        brute_force_min_beta(SIGMA, RHO, 0.1, samples=999)


@pytest.mark.parametrize("target", (0.0, 1.0))
def test_sample_test_operators_accepts_interval_ends(target):
    m = sample_test_operators(2, 10, target, SIGMA.matrix, philox(1))
    assert np.allclose(np.real(np.einsum("ij,nji->n", SIGMA.matrix, m)), target, atol=1e-12)


# sha256 of sample_test_operators(d, 300, target, random_density(d, philox(60 + d)),
# philox(70 + d)) output bytes, computed when the draw still built the
# Hermitian stack directly from the Philox normals.
SAMPLED_OPERATOR_SHA256 = {
    (1, 0.0): "24ddaa4710480313757f965c38d60208a334556cb244f830d5006a893edd8da7",
    (1, 0.3): "457f4778dad669ebd7cd902eda4d93a24c8800c2528477bcf3fd86c71b52213a",
    (1, 1.0): "61f2e39293308922076a118429981704de2457cf38a3b67a61cb975c71884cd6",
    (2, 0.0): "17744bb6a4ed1d9d51d85d7eb645cde30352530d494233c434027f9e3193bae4",
    (2, 0.3): "6b1b3f6fdcad123e60aff4c5f1bfed0f188b0cd21423b21e2e21024889d007e8",
    (2, 1.0): "cd44d6563afc42f45e4b8983e778a646cdab143afede2b6808e1bb1d749ecd2e",
    (3, 0.0): "e19d750c09c65857034cb57d3021349141c001da44d8e310a5281090f9b1f78a",
    (3, 0.3): "97eaabf8b7f3ea6a4ad9f8f1522973709e1ce75cb583cb2d6eff468e145c677a",
    (3, 1.0): "19bb0e6319e8cc0a661611eca5ea1871164be79192f0198159334a59a561da1c",
    (4, 0.0): "e2cc2a1fa6131cf4d86faa3baf78851f35a36853e2467c257b3df9d89e85cce5",
    (4, 0.3): "8925bfb2b933956f53c93c5112bd013dfe424c14998d8fc95f01f4f87e6ddb91",
    (4, 1.0): "1b3ff0cf0792aa3aeeda18bf4c8b63155ea18c4a7cb941acb60379b8a10c12a6",
}


@pytest.mark.parametrize(("d", "target"), sorted(SAMPLED_OPERATOR_SHA256))
def test_sample_test_operators_bits_are_pinned(d, target):
    sigma = random_density(d, philox(60 + d)).matrix
    m = sample_test_operators(d, 300, target, sigma, philox(70 + d))
    assert m.dtype == np.complex128 and m.shape == (300, d, d)
    assert hashlib.sha256(m.tobytes()).hexdigest() == SAMPLED_OPERATOR_SHA256[d, target]


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_draw_entries_are_the_hermitian_parts_bit_for_bit(d):
    # Reference: the Hermitian parts (g + g^H)/2 assembled from the same
    # normals as a complex stack, then read entry by entry.
    a, b = philox(90 + d).standard_normal((2, 500, d, d)) * (1.0 / np.sqrt(2.0))
    h = np.empty((500, d, d), complex)
    h.real, h.imag = (a + a.transpose(0, 2, 1)) * 0.5, (b - b.transpose(0, 2, 1)) * 0.5
    entries = oracle_module._draw_entries(d, 500, philox(90 + d))
    assert np.array_equal(entries, entries_of(h))
    assert np.array_equal(oracle_module._hermitian_stack(entries), h)


@pytest.mark.parametrize("d", (2, 3))
def test_brute_force_on_scalar_draws_matches_operator_search(monkeypatch, d):
    # h proportional to 1 has a spectrum of zero width, so both searches take
    # the span < 1e-12 branch; every test is then target * 1.
    monkeypatch.setattr(
        oracle_module, "_draw_entries",
        lambda dim, n, rng: entries_of(np.einsum("n,ij->nij", rng.standard_normal(n), np.eye(dim)).astype(complex)),
    )
    sigma, rho = random_density(d, philox(8)), random_density(d, philox(9))
    report = brute_force_min_beta(sigma, rho, 0.3, samples=2_000, seed=4, batch=700)
    best, best_alpha = operator_min_beta(sigma, rho, 0.3, 2_000, 4, 700)
    assert report.best_value == pytest.approx(best, abs=1e-12)
    assert report.argmin_description["alpha"] == pytest.approx(best_alpha, abs=1e-12)
    assert best == pytest.approx(1.0 - report.argmin_description["alpha_target"], abs=1e-12)


def test_brute_force_rejects_mismatched_dimensions(rng):
    with pytest.raises(DimMismatch):
        brute_force_min_beta(SIGMA, random_density(3, rng), 0.1, samples=2_000)


@pytest.mark.parametrize("batch", (0, -5))
def test_brute_force_rejects_nonpositive_batch(batch):
    with pytest.raises(ValueError, match=f"batch={batch}"):
        brute_force_min_beta(SIGMA, RHO, 0.1, samples=2_000, batch=batch)


# ---------------------------------------------------------------------------
# certified-radius boundary search


def test_boundary_matches_demo_numbers():
    t = boundary_radius_search(0.9, 0.1, demo.benign_state(), samples=60, seed=2)
    assert t == pytest.approx(0.4472135955, abs=1e-6)
    assert 2.0 * math.asin(t) == pytest.approx(0.9272952180, abs=1e-3)


def test_boundary_vanishes_at_degenerate_gap():
    t = boundary_radius_search(0.5 + 1e-6, 0.5, demo.benign_state(), samples=40, seed=1)
    assert t == pytest.approx(0.0, abs=1e-2)


def test_boundary_cross_validates_closed_form(rng):
    for p_a, p_b in ((0.8, 0.2), (0.7, 0.1), (0.95, 0.05)):
        reference = random_pure(2, rng)
        t = boundary_radius_search(p_a, p_b, reference, samples=45, seed=int(rng.integers(1 << 30)))
        assert t == pytest.approx(radius_qht_pure(p_a, p_b), abs=1e-6)


def test_boundary_input_checks():
    with pytest.raises(InvalidProbabilityOrder):
        boundary_radius_search(0.3, 0.5, demo.benign_state())
    with pytest.raises(ValueError):
        boundary_radius_search(0.9, 0.1, PureState([1.0, 0.0, 0.0]))


# Operating points of the search tests: typed pairs with pB = 1 - pA (one
# test decides) and unequal pairs (two tests).
SEARCH_POINTS = ((0.9, 0.1), (0.8, 0.2), (0.75, 0.25), (0.7, 0.1), (0.85, 0.05), (0.6, 0.3))
SMOOTHED_CASES = [(d, p) for d in (3, 4) for p in (0.2, 0.5)]


def plane_state(psi, partner, theta, p=0.0):
    rho = PureState(math.cos(theta / 2.0) * psi + math.sin(theta / 2.0) * partner).density()
    return depolarize(rho, p) if p > 0.0 else rho


def orthogonal_partner(psi, rng):
    v = rng.standard_normal(len(psi)) + 1j * rng.standard_normal(len(psi))
    v = v - np.vdot(psi, v) * psi
    return v / np.linalg.norm(v)


def bisection_radius(psi, partner, p_a, p_b, steps, p=0.0):
    """Plain bisection of the angle on the sign of certify_condition."""
    null = plane_state(psi, partner, 0.0, p)

    def holds(theta):
        return certify_condition(null, plane_state(psi, partner, theta, p), p_a, p_b)

    lo, hi = 0.0, math.pi
    if holds(hi):
        return 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return math.sin(0.5 * (lo + hi) / 2.0)


def assert_radius_is_boundary(psi, partner, p_a, p_b, radius, p=0.0):
    null = plane_state(psi, partner, 0.0, p)
    for offset, expected in ((-1e-6, True), (1e-6, False)):
        rho = plane_state(psi, partner, 2.0 * math.asin(radius + offset), p)
        assert certify_condition(null, rho, p_a, p_b) is expected


def counting_eigh(monkeypatch):
    calls = [0]
    eigh = np.linalg.eigh

    def wrapped(*args, **kwargs):
        calls[0] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", wrapped)
    return calls


def test_boundary_search_matches_bisection():
    rng = philox(8101)
    for p_a, p_b in SEARCH_POINTS:
        reference = random_pure(2, rng)
        ref = reference.amplitudes
        perp = np.array([-np.conj(ref[1]), np.conj(ref[0])])
        radius = boundary_radius_search(p_a, p_b, reference, samples=60, seed=int(rng.integers(1 << 30)))
        assert radius == pytest.approx(bisection_radius(ref, perp, p_a, p_b, 60), abs=1e-9)
        assert_radius_is_boundary(ref, perp, p_a, p_b, radius)


@pytest.mark.parametrize("d,p", SMOOTHED_CASES)
def test_smoothed_fallback_matches_bisection(d, p):
    rng = philox(8200 + 10 * d + int(10 * p))
    for p_a in (0.7, 0.85):
        psi = random_pure(d, rng).amplitudes
        partner = orthogonal_partner(psi, rng)
        radius = _smoothed_boundary_generic(PureState(psi).density(), p, p_a)
        assert radius == pytest.approx(bisection_radius(psi, partner, p_a, 1.0 - p_a, 40, p), abs=1e-9)
        assert_radius_is_boundary(psi, partner, p_a, 1.0 - p_a, radius, p)


def test_smoothed_reference_search_rejects_one_dimensional_state():
    # A single basis state spans no 2-plane: a typed error, not a 0/0.
    with pytest.raises(OutOfRegime, match="d >= 2"):
        _smoothed_boundary_generic(PureState([1.0]).density(), 0.2, 0.8)


def test_margin_steps_need_few_solves(monkeypatch):
    calls = counting_eigh(monkeypatch)
    rng = philox(8303)
    searches = 0
    for p_a, p_b in SEARCH_POINTS:
        for _ in range(3):
            boundary_radius_search(p_a, p_b, random_pure(2, rng), samples=60, seed=int(rng.integers(1 << 30)))
            searches += 1
    assert calls[0] / searches <= 120  # 99 here; primal margins: 234
    calls[0] = 0
    searches = 0
    for d, p in SMOOTHED_CASES + [(2, 0.3), (8, 0.3)]:
        for p_a in (0.6, 0.75, 0.9):
            _smoothed_boundary_generic(random_pure(d, rng).density(), p, p_a)
            searches += 1
    assert calls[0] / searches <= 77  # 76 here; primal margins: 85


def test_boundary_search_stops_at_float_resolution(monkeypatch):
    calls = counting_eigh(monkeypatch)
    radius = boundary_radius_search(0.9, 0.1, demo.benign_state(), samples=10_000)
    assert calls[0] <= 114
    assert radius == pytest.approx(radius_qht_pure(0.9, 0.1), abs=1e-9)


def test_boundary_search_stops_at_a_zero_margin(monkeypatch):
    # A margin that is exactly 0 over a band of angles: the first angle the
    # search meets in the band is a boundary, and the search ends there.
    reference = demo.benign_state()
    psi = reference.amplitudes
    seen = []

    def margin(sigma, rho, p_a, p_b, exact=False):
        overlap = float(np.real(np.vdot(psi, rho.matrix @ psi)))
        theta = 2.0 * math.acos(math.sqrt(min(max(overlap, 0.0), 1.0)))
        seen.append(theta)
        return 0.0 if abs(theta - 1.0) < 0.2 else 1.0 - theta

    monkeypatch.setattr(helstrom_module, "_condition_margin", margin)
    radius = boundary_radius_search(0.9, 0.1, reference, samples=60, seed=4)
    assert abs(seen[-1] - 1.0) < 0.2
    assert radius == pytest.approx(math.sin(seen[-1] / 2.0), abs=1e-12)
    assert len(seen) <= 8


def test_condition_is_the_sign_of_its_margin():
    rng = philox(8404)
    pairs = []
    for p_a, p_b in SEARCH_POINTS:
        sigma = random_pure(2, rng)
        ref = sigma.amplitudes
        perp = np.array([-np.conj(ref[1]), np.conj(ref[0])])
        for theta in np.linspace(0.0, math.pi, 9):
            pairs.append((sigma.density(), plane_state(ref, perp, float(theta)), p_a, p_b))
    rng = philox(303)  # the first pairs of acceptance criterion 3
    for _ in range(25):
        sigma, rho = random_pure(2, rng).density(), random_pure(2, rng).density()
        pairs += [(sigma, rho, float(p_a), 1.0 - float(p_a)) for p_a in np.linspace(0.52, 0.98, 20)]
    for sigma, rho, p_a, p_b in pairs:
        assert certify_condition(sigma, rho, p_a, p_b) == (_condition_margin(sigma, rho, p_a, p_b) > 0.0)


# ---------------------------------------------------------------------------
# Hoeffding coverage


def test_coverage_deterministic_classifier():
    from qhtcert import Classifier, Povm, identity_kraus

    cl = Classifier(identity_kraus(2), Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), (0, 1)))
    assert hoeffding_coverage(cl, SIGMA, 1_000, 200, 0.05, seed=1) == 1.0


def test_coverage_meets_confidence_level():
    cl = demo.hemisphere_classifier()
    cov = hoeffding_coverage(cl, SIGMA, 4_000, 1_000, 0.05, seed=9)
    assert cov >= 0.94
    cov_loose = hoeffding_coverage(cl, SIGMA, 4_000, 1_000, 0.5, seed=9)
    assert cov_loose >= 0.48


def test_coverage_requires_enough_trials():
    with pytest.raises(ValueError):
        hoeffding_coverage(demo.hemisphere_classifier(), SIGMA, 10, 100, 0.05)

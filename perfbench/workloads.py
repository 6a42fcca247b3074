"""The three workloads: their inputs, their jobs and each job's reference check.

A workload is a deck of jobs built from the seed during set-up.  The deck fixes
the mix: how many slots each kind of job has, and which operating points they
use; the seed only draws the states and sampling seeds.  Slow kinds sit at
evenly spaced slots.  The closed loop cycles through the deck, so every job
runs many times, spread over the run.

A job has four parts:

* ``kind``    what the job calls, as reported in the mix,
* ``run``     the timed call into the library (or the in-process CLI),
* ``digest``  untimed: reduces the result to what the check needs,
* ``check``   untimed: returns None when the digest matches an independent
              reference, else the reason it does not.

Why these workloads and mixes is recorded in NOTES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from references import dual_beta, pure_overlap_sq, pure_trace_distance

# Operating points, typed as a user would type them.  Of the pairs with
# pB = 1 - pA, ``p_b == 1.0 - p_a`` holds in floating point only for
# (0.6, 0.4) and (0.75, 0.25).
TYPED_EQUAL = ((0.55, 0.45), (0.6, 0.4), (0.7, 0.3), (0.75, 0.25), (0.8, 0.2), (0.85, 0.15), (0.9, 0.1), (0.95, 0.05))
UNEQUAL = ((0.8, 0.1), (0.7, 0.2), (0.9, 0.05), (0.6, 0.3), (0.95, 0.02), (0.85, 0.1), (0.65, 0.25), (0.75, 0.15))
ALPHAS = (0.05, 0.1, 0.2, 0.3, 0.4)

BAND = 1e-6            # no verdict is checked this close to the decision boundary
ALPHA_TOL = 1e-9       # |Tr[sigma M] - alpha0|
BETA_CLOSED_TOL = 1e-9  # pure/pure beta against bounds.pure_beta_closed_form
BETA_DUAL_TOL = 1e-9   # beta against the dual reference
# On near-identical pairs helstrom widens its zero band up to an absolute
# floor of 1e-7 (times 1 + t, and t is near 1 there); it documents the
# resulting beta error as O(d * floor).  At d=64 such pairs miss the dual
# optimum by ~1e-6, so their tolerance scales with d.
NEAR_IDENTICAL_TOL_PER_DIM = 2e-7
BRUTE_TOL = 1e-9       # brute force may not beat the optimal beta by more
RADIUS_TOL = 1e-6      # boundary_radius_search against radius_qht_pure
PROB_TOL = 1e-9        # worst-case classifier probabilities on sigma


@dataclass(eq=False)
class Job:
    kind: str
    run: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], "str | None"]


def spread(counts: dict, length: int) -> list:
    """Kinds at evenly spaced positions; the kind with the most slots fills the gaps."""
    slots = [None] * length
    fill = max(counts, key=counts.get)
    for kind, n in sorted(counts.items(), key=lambda kv: kv[1]):
        if kind == fill:
            continue
        for j in range(n):
            pos = int((j + 0.5) * length / n)
            while slots[pos % length] is not None:
                pos += 1
            slots[pos % length] = kind
    return [fill if s is None else s for s in slots]


# ---------------------------------------------------------------------------
# Inputs, drawn with numpy only, so they stay the same when the library changes


def haar_pure(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def with_overlap(rng, psi: np.ndarray, overlap_sq: float) -> np.ndarray:
    """A pure state whose squared overlap with ``psi`` is ``overlap_sq``."""
    v = haar_pure(rng, psi.shape[0])
    v = v - np.vdot(psi, v) * psi
    v = v / np.linalg.norm(v)
    return math.sqrt(overlap_sq) * psi + math.sqrt(1.0 - overlap_sq) * v


def ginibre_density(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def isometry(rng, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    return q


def pair(rng, lib, d: int, kind: str):
    """(sigma, rho, overlap_sq or None) for one pair kind; sigma is the benign state."""
    pure = lambda v: lib.states.PureState(v).density()  # noqa: E731
    mixed = lib.states.validate_density
    if kind == "pure/pure":
        psi = haar_pure(rng, d)
        phi = haar_pure(rng, d)
        return pure(psi), pure(phi), pure_overlap_sq(psi, phi)
    if kind == "pure/pure-overlap":
        psi = haar_pure(rng, d)
        phi = with_overlap(rng, psi, float(rng.uniform(0.55, 0.95)))
        return pure(psi), pure(phi), pure_overlap_sq(psi, phi)
    if kind == "pure/mixed":
        return pure(haar_pure(rng, d)), mixed(ginibre_density(rng, d)), None
    if kind == "mixed/mixed":
        return mixed(ginibre_density(rng, d)), mixed(ginibre_density(rng, d)), None
    if kind == "near-identical":
        s = ginibre_density(rng, d)
        eps = 10.0 ** rng.uniform(-5.0, -3.0)
        return mixed(s), mixed((1.0 - eps) * s + eps * ginibre_density(rng, d)), None
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Library jobs


def condition_job(lib, sigma, rho, p_a, p_b, overlap_sq) -> Job:
    """certify_condition; pure pairs checked against the closed-form radius, others against the dual."""

    def check(verdict):
        if overlap_sq is not None:
            gap = lib.bounds.radius_qht_pure(p_a, p_b) - pure_trace_distance(overlap_sq)
        else:
            gap = dual_beta(rho.matrix, sigma.matrix, 1.0 - p_a) + dual_beta(rho.matrix, sigma.matrix, p_b) - 1.0
        if abs(gap) <= BAND or verdict == (gap > 0.0):
            return None
        return f"certify_condition={verdict}, reference margin {gap:.3e}"

    return Job(
        "certify_condition",
        lambda: lib.helstrom.certify_condition(sigma, rho, p_a, p_b),
        bool,
        check,
    )


def helstrom_job(lib, sigma, rho, alpha0, overlap_sq, near_identical) -> Job:
    """helstrom; alpha(M) recomputed from M, beta against the dual and the pure closed form."""
    dual_tol = NEAR_IDENTICAL_TOL_PER_DIM * sigma.dim if near_identical else BETA_DUAL_TOL

    def digest(test):
        return float(np.real(np.sum(sigma.matrix.T * test.m))), test.beta

    def check(out):
        alpha, beta = out
        if abs(alpha - alpha0) > ALPHA_TOL:
            return f"alpha(M)={alpha!r} differs from alpha0={alpha0}"
        if overlap_sq is not None and max(0.0, alpha0) < overlap_sq:
            closed = lib.bounds.pure_beta_closed_form(overlap_sq, 1.0 - alpha0, 0.0)[0]
            if abs(beta - closed) > BETA_CLOSED_TOL:
                return f"beta={beta!r} differs from closed form {closed!r}"
        ref = dual_beta(rho.matrix, sigma.matrix, alpha0)
        if abs(beta - ref) > dual_tol:
            return f"beta={beta!r} differs from dual {ref!r}"
        return None

    return Job("helstrom", lambda: lib.helstrom.helstrom(rho, sigma, alpha0), digest, check)


def boundary_job(lib, p_a, p_b, reference, seed) -> Job:
    def check(radius):
        want = lib.bounds.radius_qht_pure(p_a, p_b)
        return None if abs(radius - want) <= RADIUS_TOL else f"radius {radius!r} vs {want!r}"

    return Job(
        "boundary_radius_search",
        lambda: lib.oracle.boundary_radius_search(p_a, p_b, reference, 60, seed),
        float,
        check,
    )


def brute_force_job(lib, sigma, rho, alpha0, seed) -> Job:
    def check(found):
        optimal = lib.helstrom.helstrom(rho, sigma, alpha0).beta
        return None if found >= optimal - BRUTE_TOL else f"brute force {found!r} beats optimal {optimal!r}"

    return Job(
        "brute_force_min_beta",
        lambda: lib.oracle.brute_force_min_beta(sigma, rho, alpha0, 20_000, seed),
        lambda report: report.best_value,
        check,
    )


def worst_case_job(lib, sigma, rho, p_a, overlap_sq) -> Job:
    """worst_case_classifier, then its predictions on sigma and rho."""

    def run():
        wc = lib.classifier.worst_case_classifier(sigma, rho, p_a, 0, 1)
        return lib.classifier.class_probabilities(wc, sigma), lib.classifier.class_probabilities(wc, rho)

    def check(out):
        on_sigma, on_rho = out
        if abs(on_sigma[0] - p_a) > PROB_TOL or abs(on_sigma[1] - (1.0 - p_a)) > PROB_TOL:
            return f"probabilities on sigma {on_sigma.tolist()} vs pA={p_a}"
        gap = lib.bounds.radius_qht_pure(p_a, 1.0 - p_a) - pure_trace_distance(overlap_sq)
        if abs(gap) > BAND and (on_rho[0] > on_rho[1]) != (gap > 0.0):
            return f"prediction on rho {on_rho.tolist()} with radius margin {gap:.3e}"
        return None

    return Job("worst_case_classifier", run, lambda out: out, check)


# ---------------------------------------------------------------------------
# qubit-sweep

QUBIT_DECK = {"boundary_radius_search": 3, "brute_force_min_beta": 2, "worst_case_classifier": 4, "certify_condition": 191}
QUBIT_PAIRS = ("pure/pure", "pure/mixed", "mixed/mixed")


def qubit_sweep(lib, rng, workdir) -> list:
    jobs = []
    seen = dict.fromkeys(QUBIT_DECK, 0)
    for kind in spread(QUBIT_DECK, sum(QUBIT_DECK.values())):
        k = seen[kind]
        seen[kind] += 1
        if kind == "certify_condition":
            d = 2 if k % 10 < 7 else 4
            sigma, rho, ov = pair(rng, lib, d, QUBIT_PAIRS[k % 3])
            points = TYPED_EQUAL if (k // 3) % 2 == 0 else UNEQUAL
            p_a, p_b = points[(k // 6) % len(points)]
            jobs.append(condition_job(lib, sigma, rho, p_a, p_b, ov))
        elif kind == "boundary_radius_search":
            p_a, p_b = (TYPED_EQUAL[6], UNEQUAL[0], UNEQUAL[6])[k]
            ref = lib.states.PureState(haar_pure(rng, 2))
            jobs.append(boundary_job(lib, p_a, p_b, ref, int(rng.integers(2**31))))
        elif kind == "brute_force_min_beta":
            sigma, rho, _ = pair(rng, lib, (2, 4)[k], ("pure/mixed", "mixed/mixed")[k])
            jobs.append(brute_force_job(lib, sigma, rho, ALPHAS[1 + k], int(rng.integers(2**31))))
        else:
            sigma, rho, ov = pair(rng, lib, 2, "pure/pure")
            jobs.append(worst_case_job(lib, sigma, rho, TYPED_EQUAL[2 + k][0], ov))
    return jobs


# ---------------------------------------------------------------------------
# highdim-sweep

HIGHDIM_PAIRS = ("pure/pure-overlap", "pure/mixed", "mixed/mixed", "near-identical")
HIGHDIM_DECK = 32      # eight d=64 jobs at every fourth slot, twenty-four d=16 jobs


def highdim_sweep(lib, rng, workdir) -> list:
    jobs = []
    for pos in range(HIGHDIM_DECK):
        d, j = (64, pos // 4) if pos % 4 == 0 else (16, pos - pos // 4 - 1)
        kind = HIGHDIM_PAIRS[(j // 2) % 4]
        sigma, rho, ov = pair(rng, lib, d, kind)
        # At d=64 near-identical pairs get a second helstrom job instead of a
        # certify_condition job: its cost varies with the sampled pair (86 to
        # over 100 eigh calls as zero-band rungs and refinement retries fire),
        # and as the costliest d=64 job it would make latency_tail_ms a matter
        # of the seed.
        if j % 2 == 0 or (d == 64 and kind == "near-identical"):
            alpha0 = ALPHAS[(j // 2 + j % 2) % len(ALPHAS)]
            jobs.append(helstrom_job(lib, sigma, rho, alpha0, ov, kind == "near-identical"))
        else:
            points = TYPED_EQUAL if (j // 2) % 2 == 0 else UNEQUAL
            p_a, p_b = points[(j // 2) % len(points)]
            jobs.append(condition_job(lib, sigma, rho, p_a, p_b, ov))
    return jobs


# ---------------------------------------------------------------------------
# certify-cli

# Slots per deck, and how many distinct requests fill each kind's slots.
CLI_DECK = {
    "toy-example": (1, 1),
    "certify-smooth-d4": (10, 2),
    "bounds": (80, 16),
    "certify-protocol-d2": (70, 8),
    "certify-extended-d2": (50, 8),
    "certify-protocol-d4": (60, 6),
    "certify-extended-d4": (50, 6),
    "certify-abstain": (40, 4),
    "certify-smooth-d2": (39, 8),
}
CLI_COLUMNS = ("pA", "pB", "p", "r_qht_pure", "r_hoelder", "r_qht_pure_mixed_main",
               "r_qht_pure_mixed_appendix", "r_depol_qht", "r_depol_hoelder", "r_depol_dp")


def canonical_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def hemisphere_povm(top: float) -> np.ndarray:
    """Projector whose expectation on |0> is ``top`` (axis tilted at azimuth pi/2)."""
    theta = 2.0 * math.acos(math.sqrt(top))
    axis = np.array([math.cos(theta / 2.0), 1j * math.sin(theta / 2.0)])
    return np.outer(axis, axis.conj())


def near_identity_channel(rng, d: int, q: float) -> list:
    """Kraus operators of (1-q) id + q * (random two-operator channel)."""
    iso = isometry(rng, 2 * d, d)
    return [math.sqrt(1.0 - q) * np.eye(d)] + [math.sqrt(q) * iso[i * d:(i + 1) * d] for i in range(2)]


class CliFiles:
    """JSON input files for the CLI, written during set-up, and paths for its outputs."""

    def __init__(self, lib, workdir: Path):
        self.lib = lib
        self.dir = workdir / "io"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def path(self, suffix: str) -> str:
        self.count += 1
        return str(self.dir / f"f{self.count:03d}{suffix}")

    def write(self, obj) -> str:
        path = self.path(".json")
        Path(path).write_text(json.dumps(obj))
        return path

    def classifier(self, kraus, elements, labels):
        st = self.lib.states
        cl = self.lib.classifier.Classifier(st.Channel(tuple(kraus)), st.Povm(tuple(elements), tuple(labels)), tuple(labels))
        return cl, self.write(self.lib.serialize.classifier_to_json(cl))

    def pure_state(self, v):
        psi = self.lib.states.PureState(v)
        return psi.density(), self.write(self.lib.serialize.pure_to_json(psi))


def cli_job(lib, kind, argv, out_path, expected) -> Job:
    """One in-process ``cli.main(argv)`` call; stdout is captured as the user would see it.

    ``expected()`` gives the reference (exit code, sha256 of the output); it
    runs once, in the check phase.
    """
    expected = functools.cache(expected)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(argv)
        return code, buf.getvalue()

    def digest(result):
        code, stdout = result
        if out_path is None:
            return code, stdout
        text = Path(out_path).read_text()
        if out_path.endswith(".csv"):
            return code, hashlib.sha256(text.encode()).hexdigest()
        return code, canonical_sha256(json.loads(text))

    def check(out):
        code, got = out
        want_code, want = expected()
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if kind == "toy-example":
            lines = got.strip().splitlines()
            return None if len(lines) == 4 and all(s.endswith(" PASS") for s in lines) else f"toy-example output {got!r}"
        return None if got == want else f"output sha256 {got} differs from reference {want}"

    return Job(kind, run, digest, check)


def certify_cli(lib, rng, workdir) -> list:
    files = CliFiles(lib, workdir)
    cert = lib.certification

    def certificate_request(kind, classifier, state, shots, eps, mode=None, smooth=None):
        """certify through the CLI; the reference is the same certificate from a direct library call."""
        (cl, cl_path), (sigma, st_path) = classifier, state
        seed = int(rng.integers(2**31))
        out = files.path(".json")
        argv = ["certify", "--classifier", cl_path, "--state", st_path, "--shots", str(shots),
                "--epsilon", repr(eps), "--seed", str(seed), "--output", out]
        argv += ["--mode", mode] if smooth is None else ["--smooth-p", repr(smooth)]

        def expected():
            if smooth is None:
                ref = cert.certify(cl, sigma, shots, eps, seed, mode=mode)
            else:
                ref = cert.certify_smoothed(cl, sigma, smooth, shots, eps, seed)
            return 2 if ref.abstained else 0, canonical_sha256(cert.certificate_to_json(ref))

        return cli_job(lib, kind, argv, out, expected)

    def bounds_request(p_a, p_b, p):
        """bounds through the CLI; the reference is the CSV row formatted here from bound_report."""
        out = files.path(".csv")
        argv = ["bounds", "--pA", repr(p_a), "--pB", repr(p_b), "--p", repr(p), "--output", out]

        def expected():
            report = lib.bounds.bound_report(p_a, p_b, p)
            row = [getattr(report, name) for name in ("p_a", "p_b", "p") + CLI_COLUMNS[3:]]
            text = ",".join(CLI_COLUMNS) + "\n" + ",".join("" if v is None else format(float(v), ".12g") for v in row) + "\n"
            return 0, hashlib.sha256(text.encode()).hexdigest()

        return cli_job(lib, "bounds", argv, out, expected)

    # d=2: the demo geometry, |0> against hemisphere classifiers of several strengths.
    zero = files.pure_state([1.0, 0.0])
    hemis = []
    for top in (0.75, 0.8, 0.9, 0.95):
        proj = hemisphere_povm(top)
        hemis.append(files.classifier([np.eye(2)], [proj, np.eye(2) - proj], (0, 1)))
    balanced = files.classifier([np.eye(2)], [np.eye(2) / 2.0, np.eye(2) / 2.0], (0, 1))

    # d=4: three-class classifiers behind a noisy channel, on a state close to class 0.
    multi = []
    for _ in range(3):
        u = isometry(rng, 4, 4)
        cols = [u[:, [0]], u[:, [1]], u[:, 2:]]
        cl = files.classifier(near_identity_channel(rng, 4, 0.15), [c @ c.conj().T for c in cols], ("a", "b", "c"))
        tail = u[:, 1:] @ haar_pure(rng, 3)
        multi.append((cl, files.pure_state(math.sqrt(0.8) * u[:, 0] + math.sqrt(0.2) * tail)))
    uniform = files.classifier(near_identity_channel(rng, 4, 0.15), [np.eye(4) / 3.0] * 3, ("a", "b", "c"))
    uniform_state = files.pure_state(haar_pure(rng, 4))

    def make(kind, m):
        if kind == "toy-example":
            argv = ["toy-example", "--seed", str(int(rng.integers(2**31)))]
            return cli_job(lib, kind, argv, None, lambda: (0, None))
        if kind == "certify-smooth-d4":
            # A d=4 pure state whose two-outcome classifier gives class 0 with
            # 0.85, so pA_lower clears 1/2 and the generic boundary bisection runs.
            psi = haar_pure(rng, 4)
            phi = with_overlap(rng, psi, 0.85)
            proj = np.outer(phi, phi.conj())
            cl = files.classifier([np.eye(4)], [proj, np.eye(4) - proj], (0, 1))
            return certificate_request(kind, cl, files.pure_state(psi), 1000, 0.01, smooth=(0.1, 0.2)[m])
        if kind == "bounds":
            p_a, p_b = (TYPED_EQUAL + UNEQUAL)[m]
            return bounds_request(p_a, p_b, (0.0, 0.1, 0.3)[m % 3])
        if kind in ("certify-protocol-d2", "certify-extended-d2"):
            return certificate_request(kind, hemis[m % 4], zero, 1000, 0.01, mode=kind.split("-")[1])
        if kind in ("certify-protocol-d4", "certify-extended-d4"):
            cl, state = multi[m % 3]
            return certificate_request(kind, cl, state, 2000, 0.01, mode=kind.split("-")[1])
        if kind == "certify-abstain":
            if m % 2 == 0:
                return certificate_request(kind, balanced, zero, 500, 0.05, mode="protocol")
            return certificate_request(kind, uniform, uniform_state, 500, 0.05, mode="extended")
        return certificate_request(kind, hemis[m % 4], zero, 1000, 0.01, smooth=(0.1, 0.3)[m % 2])

    made = {}
    jobs = []
    seen = dict.fromkeys(CLI_DECK, 0)
    for kind in spread({k: slots for k, (slots, _) in CLI_DECK.items()}, sum(s for s, _ in CLI_DECK.values())):
        key = (kind, seen[kind] % CLI_DECK[kind][1])
        seen[kind] += 1
        if key not in made:
            made[key] = make(*key)
        jobs.append(made[key])
    return jobs


WORKLOADS = {
    "qubit-sweep": qubit_sweep,
    "highdim-sweep": highdim_sweep,
    "certify-cli": certify_cli,
}

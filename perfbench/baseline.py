"""Traced per-call cost of the solver layers, for comparison with the ROADMAP baseline.

    python3 perfbench/baseline.py

For helstrom at d in {2, 4, 16, 64} (random mixed pairs, alpha0 = 0.1) it
prints the median traced wall time per call and the eigh calls per call; for
certify_condition with unequal levels, the d=4 generic smoothed certificate
and boundary_radius_search at 60 steps it prints the eigh calls per call.
Inputs are drawn from SEED.  Counts repeat exactly; times depend on the machine.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402

import numpy as np  # noqa: E402

from run import import_library  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import ginibre_density, haar_pure, with_overlap  # noqa: E402

SEED = 0


def per_call(tracer: Tracer, name: str, calls) -> tuple:
    """Run each zero-argument call as one traced job; (median ms of ``name`` spans, eigh calls per job)."""
    first = len(tracer.spans)
    for job_id, fn in enumerate(calls):
        tracer.run_job(job_id, fn)
    spans = tracer.spans[first:]
    times = [(end - start) / 1e6 for _, _, _, n, start, end in spans if n == name]
    eigh = sum(1 for s in spans if s[3] == "numpy.linalg.eigh")
    return statistics.median(times), eigh / len(calls)


def main() -> None:
    lib = import_library()
    rng = np.random.Generator(np.random.Philox(SEED))
    tracer = Tracer()
    st = lib.states

    print("layer                                   d   ms/call  eigh/call")
    for d, n in ((2, 40), (4, 40), (16, 20), (64, 8)):
        pairs = [(st.validate_density(ginibre_density(rng, d)), st.validate_density(ginibre_density(rng, d))) for _ in range(n)]
        ms, eigh = per_call(tracer, "helstrom.helstrom",
                            [lambda s=s, r=r: lib.helstrom.helstrom(r, s, 0.1) for s, r in pairs])
        print(f"helstrom (mixed pair, alpha0=0.1)     {d:3d}  {ms:8.2f}  {eigh:9.1f}")

    mixed = [(st.validate_density(ginibre_density(rng, 2)), st.validate_density(ginibre_density(rng, 2))) for _ in range(20)]
    ms, eigh = per_call(tracer, "helstrom.certify_condition",
                        [lambda s=s, r=r: lib.helstrom.certify_condition(s, r, 0.8, 0.1) for s, r in mixed])
    print(f"certify_condition (mixed, 0.8, 0.1)     2  {ms:8.2f}  {eigh:9.1f}")

    psi = haar_pure(rng, 4)
    phi = with_overlap(rng, psi, 0.85)
    proj = np.outer(phi, phi.conj())
    cl = lib.classifier.Classifier(st.identity_kraus(4), st.Povm((proj, np.eye(4) - proj), (0, 1)), (0, 1))
    sigma = st.PureState(psi).density()
    ms, eigh = per_call(tracer, "certification.certify_smoothed",
                        [lambda: lib.certification.certify_smoothed(cl, sigma, 0.1, 1000, 0.01, 7)])
    print(f"certify_smoothed (generic fallback)     4  {ms:8.2f}  {eigh:9.1f}")

    ref = st.PureState(haar_pure(rng, 2))
    ms, eigh = per_call(tracer, "oracle.boundary_radius_search",
                        [lambda: lib.oracle.boundary_radius_search(0.9, 0.1, ref, 60, 3)])
    print(f"boundary_radius_search (60 steps)       2  {ms:8.2f}  {eigh:9.1f}")


if __name__ == "__main__":
    main()

"""Check that the traced call counts are deterministic.

    python3 perfbench/check_counts.py

For each workload it makes three traced runs of SECONDS each: seed A twice and
seed B once (SEEDS).  Every count metric (``*.calls_per_job`` and the three
call ratios) must repeat exactly between the two runs of seed A.  Between
seeds A and B the counts fixed by the mix must repeat exactly; the ``eigh``
and ``signed_projections`` counts depend on where each sampled pair's
threshold lands, so their change is printed instead.  Exits 1 if any required
equality fails.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("qubit-sweep", "highdim-sweep", "certify-cli")
SECONDS = 2.0
SEEDS = (1, 2)
# Counts that depend on the sampled states, not only on the mix.
INPUT_DEPENDENT = (
    "numpy.linalg.eigh.calls_per_job",
    "helstrom.signed_projections.calls_per_job",
    "numpy.linalg.eigh.calls_per_helstrom",
    "helstrom.signed_projections.calls_per_helstrom",
)


def traced(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()
    if not any(line.endswith("identical in every pass: True") for line in out):
        raise SystemExit(f"{workload} seed {seed}: span counts differ between traced passes")
    metrics = json.loads(out[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "ratio") and name != "trace.overhead_frac"}


def main() -> int:
    seed_a, seed_b = SEEDS
    ok = True
    for workload in WORKLOADS:
        first = traced(workload, seed_a, SECONDS)
        again = traced(workload, seed_a, SECONDS)
        other = traced(workload, seed_b, SECONDS)
        for name, value in first.items():
            if again[name] != value:
                ok = False
                print(f"FAIL {workload} {name}: {value!r} then {again[name]!r} for seed {seed_a}")
            if other[name] != value:
                if name in INPUT_DEPENDENT:
                    print(f"{workload} {name}: {value:.6g} (seed {seed_a}) vs {other[name]:.6g} (seed {seed_b})")
                else:
                    ok = False
                    print(f"FAIL {workload} {name}: {value!r} (seed {seed_a}) vs {other[name]!r} (seed {seed_b})")
        print(f"{workload}: eigh calls/job {first['numpy.linalg.eigh.calls_per_job']:.6g}, "
              f"per helstrom {first['numpy.linalg.eigh.calls_per_helstrom']:.6g}; "
              f"{len(first)} counts repeat for seed {seed_a}")
    print("counts deterministic" if ok else "counts NOT deterministic")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

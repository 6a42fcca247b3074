"""qhtcert benchmark: closed-loop workloads, reference checks, optional layer trace.

    python3 perfbench/run.py --workload qubit-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from ``src/``.
One caller runs the workload's jobs back to back (closed loop) in this process.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  Every job's output is checked against an independent reference.
Spans of a traced run are written to ``.perfbench/trace/``.
"""

import os

# One BLAS thread, set before numpy is first imported.  (The CLI's
# QHT_CERT_THREADS is applied only after cli.py has imported numpy, so it
# cannot do this.)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
LIBRARY_MODULES = ("states", "helstrom", "bounds", "classifier", "certification", "oracle", "serialize", "cli")
# Set-up repetitions, made twice: before the timed loop and after it.  The
# machine's speed drifts over seconds, so two groups half a minute apart give
# a steadier median than one group.
SETUP_REPS = 16
MIN_RUNS = 3
# Tail percentile: the highest of these with at least 10 runs beyond it.  The
# steps are wide enough that run-to-run changes in the job count do not move
# the tail between kinds of job (p99.5 holds from 2000 to 10000 jobs).
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99)


class BenchmarkError(Exception):
    pass


def environment() -> dict:
    """CPU count, numpy and OpenBLAS versions and the BLAS thread count in effect."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_runtime": threads,
        "python": sys.version.split()[0],
    }


def import_library():
    """A fresh import of qhtcert from this checkout's ``src``, so set-up pays for it every time."""
    for name in [n for n in sys.modules if n == "qhtcert" or n.startswith("qhtcert.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        pkg = importlib.import_module("qhtcert")
    except ImportError as exc:
        raise BenchmarkError(f"cannot import qhtcert from {src}: {exc}") from exc
    if not Path(pkg.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise BenchmarkError(f"qhtcert was imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"qhtcert.{m}") for m in LIBRARY_MODULES})


def set_up(workload: str, seed: int):
    """Import, generate the inputs from the seed and write the CLI's files, SETUP_REPS times.

    Files left by an earlier run are removed once, before the timed
    repetitions; each repetition then writes the same files again.
    Repetitions alternate between the CPUs this process may use.  Returns the
    last repetition's jobs and the time of each repetition in seconds.
    """
    shutil.rmtree(WORKDIR / "io", ignore_errors=True)
    times = []
    with cpu_rotation() as use_cpu:
        for rep in range(SETUP_REPS):
            use_cpu(rep)
            start = time.perf_counter()
            lib = import_library()
            rng = np.random.Generator(np.random.Philox(seed))
            jobs = WORKLOADS[workload](lib, rng, WORKDIR)
            times.append(time.perf_counter() - start)
    return jobs, times


def run_one(job, tracer=None, job_id=0):
    """(latency_ns, digest or the exception the job raised)."""
    start = time.perf_counter_ns()
    try:
        result = job.run() if tracer is None else tracer.run_job(job_id, job.run)
    except Exception as exc:  # a failing job is counted, not fatal
        return time.perf_counter_ns() - start, exc
    elapsed = time.perf_counter_ns() - start
    return elapsed, job.digest(result)


@contextlib.contextmanager
def cpu_rotation():
    """Yields ``use_cpu(k)``, which pins this process to the k-th allowed CPU (cyclically).

    Set-up repetitions and passes over the deck rotate through the CPUs, so a
    core that other tenants of a shared machine slow for a while touches only
    part of a job's runs.  The original affinity is restored on exit.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        yield lambda k: os.sched_setaffinity(0, {cpus[k % len(cpus)]})
    finally:
        os.sched_setaffinity(0, cpus)


def closed_loop(jobs, seconds: float):
    """Cycle through the deck for ``seconds``.

    Returns the records, each (job index, latency_ns, digest), and the loop's
    wall time in seconds.
    """
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    with cpu_rotation() as use_cpu:
        while time.perf_counter() < deadline:
            idx = i % len(jobs)
            if idx == 0:
                use_cpu(i // len(jobs))
            records.append((idx,) + run_one(jobs[idx]))
            i += 1
    return records, time.perf_counter() - start


def check_records(jobs, records) -> list:
    """Reasons for every failed record (raised, or failed its reference check)."""
    failures = []
    verdicts = {}  # a job's reference is computed once per distinct output
    for idx, _, out in records:
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            key = (jobs[idx], repr(out))
            if key not in verdicts:
                verdicts[key] = jobs[idx].check(out)
            reason = verdicts[key]
        if reason is not None:
            failures.append(f"job {idx} ({jobs[idx].kind}): {reason}")
    return failures


def tail_percentile(n: int) -> float:
    return max(p for p in PERCENTILES if n * (1.0 - p / 100.0) >= 10.0)


def nearest_rank(sorted_values, p: float) -> float:
    k = max(1, int(np.ceil(p / 100.0 * len(sorted_values))))
    return sorted_values[k - 1]


def end_to_end(jobs, records, loop_s: float) -> tuple:
    """End-to-end metrics of one closed-loop run.

    Throughput is the completed jobs over the loop's wall time.  A job's
    latency is the median of its runs: the loop cycles through the deck and
    moves to the next CPU at each pass, so a job's runs are spread over the
    whole measurement and over the cores, and their median is steady against
    a core that other load slows for a while, yet shows any cost that most
    runs pay.  Percentiles weight each job by how often it ran, which is its
    share of the mix.
    """
    runs = {}
    for idx, lat, _ in records:
        runs.setdefault(jobs[idx], []).append(lat / 1e6)
    fewest = min(len(runs.get(job, ())) for job in jobs)
    if fewest < MIN_RUNS:
        raise BenchmarkError(f"a job ran {fewest} times; every job needs {MIN_RUNS} runs")
    median = {job: statistics.median(lat) for job, lat in runs.items()}
    lat_ms = sorted(median[jobs[idx]] for idx, _, _ in records)
    n = len(lat_ms)
    p_tail = tail_percentile(n)
    tail = nearest_rank(lat_ms, p_tail)
    metrics = {
        "jobs_per_s": (n / loop_s, "1/s"),
        "latency_p50_ms": (nearest_rank(lat_ms, 50.0), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "tail_percentile": p_tail,
        "samples": n,
        "fewest_runs": fewest,
        "distinct": len(median),
        "tail_distinct": sum(1 for m in median.values() if m >= tail),
        "tail_runs": sum(len(runs[job]) for job, m in median.items() if m >= tail),
    }
    return metrics, info


def traced_run(jobs, workload: str, seconds: float, seed: int):
    """Pass over the deck, running each job once untraced and once traced, until ``seconds`` pass.

    The two runs of a job are back to back, in alternating order, so drift
    and cache warmth cancel out of ``trace.overhead_frac``.  Returns the
    per-layer metrics, the records of every run, whether every traced pass
    made the same calls, and the number of passes.
    """
    records = [(idx,) + run_one(job) for idx, job in enumerate(jobs)]  # warm every job once
    tracer = Tracer()
    untraced_ns = traced_ns = 0
    pass_counts = []
    deadline = time.perf_counter() + seconds
    with cpu_rotation() as use_cpu:
        while not pass_counts or time.perf_counter() < deadline:
            use_cpu(len(pass_counts))
            first_span = len(tracer.spans)
            for idx, job in enumerate(jobs):
                for traced in ((False, True) if (idx + len(pass_counts)) % 2 == 0 else (True, False)):
                    record = run_one(job, tracer if traced else None, len(records))
                    records.append((idx,) + record)
                    if traced:
                        traced_ns += record[0]
                    else:
                        untraced_ns += record[0]
            counts = {}
            for span in tracer.spans[first_span:]:
                counts[span[3]] = counts.get(span[3], 0) + 1
            pass_counts.append(counts)

    jobs_traced = len(jobs) * len(pass_counts)
    summary = tracer.summary()
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_ns = summary[name]
        metrics[f"{name}.calls_per_job"] = (calls / jobs_traced, "count")
        metrics[f"{name}.self_ms_per_job"] = (self_ns / 1e6 / jobs_traced, "ms")
    eigh_in, sp_in, hel_in = nested_counts(tracer.spans)
    helstrom_calls = summary["helstrom.helstrom"][0]
    metrics["numpy.linalg.eigh.calls_per_helstrom"] = (ratio(eigh_in, helstrom_calls), "ratio")
    metrics["helstrom.helstrom.calls_per_condition"] = (ratio(hel_in, summary["helstrom.certify_condition"][0]), "ratio")
    metrics["helstrom.signed_projections.calls_per_helstrom"] = (ratio(sp_in, helstrom_calls), "ratio")
    metrics["trace.overhead_frac"] = (traced_ns / untraced_ns - 1.0, "ratio")

    trace_dir = WORKDIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{workload}-seed{seed}.jsonl")
    repeat = all(c == pass_counts[0] for c in pass_counts)
    return metrics, records, repeat, len(pass_counts)


def ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def nested_counts(spans) -> tuple:
    """eigh and signed_projections spans under a helstrom span, helstrom spans directly under certify_condition."""
    names = [s[3] for s in spans]
    parents = [s[1] for s in spans]

    def under(i: int, ancestor: str) -> bool:
        p = parents[i]
        while p >= 0:
            if names[p] == ancestor:
                return True
            p = parents[p]
        return False

    eigh = sum(1 for i, n in enumerate(names) if n == "numpy.linalg.eigh" and under(i, "helstrom.helstrom"))
    sp = sum(1 for i, n in enumerate(names) if n == "helstrom.signed_projections" and under(i, "helstrom.helstrom"))
    hel = sum(1 for i, n in enumerate(names)
              if n == "helstrom.helstrom" and parents[i] >= 0 and names[parents[i]] == "helstrom.certify_condition")
    return eigh, sp, hel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return measure(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def measure(args) -> int:
    jobs, setup_times = set_up(args.workload, args.seed)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    mix = {}
    for job in jobs:
        mix[job.kind] = mix.get(job.kind, 0) + 1
    print(f"workload {args.workload}: deck of {len(jobs)} slots {json.dumps(mix)}")

    # Warm-up: one job of each kind, untimed, so lazy imports and caches settle.
    warm = {}
    for idx, job in enumerate(jobs):
        warm.setdefault(job.kind, idx)
    warm_records = [(idx,) + run_one(jobs[idx]) for idx in warm.values()]
    gc.collect()

    if args.trace:
        metrics, records, repeat, passes = traced_run(jobs, args.workload, args.seconds, args.seed)
        print(f"traced {passes} passes over the deck; span counts identical in every pass: {repeat}")
    else:
        records, loop_s = closed_loop(jobs, args.seconds)
        metrics, info = end_to_end(jobs, records, loop_s)
        setup_times += set_up(args.workload, args.seed)[1]
        metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics}
        print(f"latency_tail_ms is p{info['tail_percentile']:g} of {info['samples']} runs, the median run of "
              f"{info['tail_distinct']} distinct jobs ({info['tail_runs']} runs) at or beyond it; "
              f"each of the {info['distinct']} distinct jobs ran at least {info['fewest_runs']} times")

    failures = check_records(jobs, warm_records + records)
    attempted = len(warm_records) + len(records)
    for reason in failures[:20]:
        print("FAILED " + reason)
    print(f"failed_frac: {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands
-----------
certify        sample a classifier on a state and write a certificate JSON
bounds         print one CSV row with every closed-form radius at (pA, pB, p)
compare-pure   CSV grid of differences between the pure-state radii
compare-depol  CSV curves of the smoothed radii over (p, pA)
toy-example    check the worked single-qubit numbers against stored references
oracle         brute-force verifiers (min-beta, boundary, coverage)

A call builds the parser of its command alone, once per process: later calls
of the same command in one process reuse it.  Its usage line still lists every
command.  JSON files are read and written as UTF-8, whatever the locale.

Exit codes: 0 success / certificate, 2 ABSTAIN, 1 error, a usage error too
(the last line on stderr is a JSON error record).  CSV output is byte-stable
for fixed inputs and seed: fixed header, fixed column order, 12-significant-digit formatting.

All sweeps run sequentially, so outputs never depend on BLAS threading.  To
cap BLAS threads, set OPENBLAS_NUM_THREADS / OMP_NUM_THREADS before the
process starts; numpy reads them only when it is first imported.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import bounds as bnd
from . import demo, oracle, serialize
from .certification import certificate_to_json, certify, certify_smoothed
from .errors import QhtcertError, _check_count
from .helstrom import helstrom
from .states import PureState

COMMANDS = ("certify", "bounds", "compare-pure", "compare-depol", "toy-example", "oracle")

CSV_BOUND_COLUMNS = [
    "pA",
    "pB",
    "p",
    "r_qht_pure",
    "r_hoelder",
    "r_qht_pure_mixed_main",
    "r_qht_pure_mixed_appendix",
    "r_depol_qht",
    "r_depol_hoelder",
    "r_depol_dp",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def _emit(lines, path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(record: dict, path: str | None = None) -> None:
    if path:
        serialize.save_json(record, path)
    else:
        sys.stdout.write(serialize.pretty_dumps(record))


def cmd_certify(args) -> int:
    if args.smooth_p is not None and args.mode != "protocol":
        raise ValueError("--smooth-p certifies in protocol mode only; drop --mode extended")
    cl = serialize.classifier_from_json(serialize.load_json(args.classifier))
    sigma = serialize.state_from_json(serialize.load_json(args.state))
    if args.smooth_p is not None:
        cert = certify_smoothed(cl, sigma, args.smooth_p, args.shots, args.epsilon, args.seed)
    else:
        cert = certify(cl, sigma, args.shots, args.epsilon, args.seed, mode=args.mode)
    _write_json(certificate_to_json(cert), args.output)
    return 2 if cert.abstained else 0


def cmd_bounds(args) -> int:
    report = bnd.bound_report(args.pA, args.pB, args.p)
    row = ",".join(_fmt(getattr(report, name)) for name in ["p_a", "p_b"] + CSV_BOUND_COLUMNS[2:])
    _emit([",".join(CSV_BOUND_COLUMNS), row], args.output)
    return 0


def cmd_compare_pure(args) -> int:
    n = args.grid
    _check_count(n, 1, "--grid must be >= 1, got {}")
    header = "pA,pB,r_qht_pure,r_hoelder,d_qht_minus_hoelder,d_hoelder_minus_mixed_main,d_hoelder_minus_mixed_appendix"
    lines = [header]
    values = np.linspace(0.0, 1.0, n)
    for p_a in values:
        for p_b in values[values < p_a]:
            r = bnd.bound_report(p_a, p_b)
            r1, rh = r.r_qht_pure, r.r_hoelder
            diffs = (r1 - rh, rh - r.r_qht_pure_mixed_main, rh - r.r_qht_pure_mixed_appendix)
            lines.append(",".join(_fmt(v) for v in (p_a, p_b, r1, rh) + diffs))
    _emit(lines, args.output)
    return 0


def cmd_compare_depol(args) -> int:
    p_values = [float(tok) for tok in args.p.split(",") if tok]
    if not p_values:
        raise ValueError(f"--p must list at least one value, got {args.p!r}")
    n = args.grid
    _check_count(n, 1, "--grid must be >= 1, got {}")
    header = "p,pA,r_depol_qht,r_depol_hoelder,r_depol_dp"
    lines = [header]
    pa_values = [0.5 + (k + 1) * 0.5 / (n + 1) for k in range(n)]
    for p in p_values:
        for p_a in pa_values:
            lines.append(",".join(_fmt(v) for v in (p, p_a) + bnd._depol_radii(p_a, p, 2, True)))
    _emit(lines, args.output)
    return 0


def cmd_toy_example(args) -> int:
    refs = demo.reference_numbers()
    sigma = demo.benign_state().density()
    rho = demo.adversarial_state().density()
    test = helstrom(rho, sigma, demo.ALPHA0)
    theta_boundary = 2.0 * math.asin(
        oracle.boundary_radius_search(
            demo.TOP_PROBABILITY, 1.0 - demo.TOP_PROBABILITY, demo.benign_state(), seed=args.seed
        )
    )
    checks = [
        ("t_threshold", test.t, refs["t_threshold"], 1e-6),
        ("beta_type2", test.beta, refs["beta"], 1e-6),
        ("beta_vs_rounded_0.44", test.beta, refs["beta_rounded"], 0.01),
        ("theta_max", theta_boundary, refs["theta_max"], 1e-3),
    ]
    all_ok = True
    for name, got, want, tol in checks:
        ok = abs(got - want) <= tol
        all_ok &= ok
        print(f"{name}: computed={got:.6f} reference={want:.6f} tol={tol:g} {'PASS' if ok else 'FAIL'}")
    return 0 if all_ok else 1


def cmd_oracle_min_beta(args) -> int:
    sigma = serialize.state_from_json(serialize.load_json(args.null))
    rho = serialize.state_from_json(serialize.load_json(args.alt))
    report = oracle.brute_force_min_beta(sigma, rho, args.alpha0, args.samples, args.seed)
    _write_json(dataclasses.asdict(report))
    return 0


def cmd_oracle_boundary(args) -> int:
    reference = PureState([1.0, 0.0])
    if args.reference:
        mat = serialize.state_from_json(serialize.load_json(args.reference))
        reference = PureState.from_density(mat)
    radius = oracle.boundary_radius_search(args.pA, args.pB, reference, args.samples, args.seed)
    _write_json({"trace_distance": radius, "theta": 2.0 * math.asin(min(radius, 1.0))})
    return 0


def cmd_oracle_coverage(args) -> int:
    cl = serialize.classifier_from_json(serialize.load_json(args.classifier))
    sigma = serialize.state_from_json(serialize.load_json(args.state))
    cov = oracle.hoeffding_coverage(cl, sigma, args.trials, args.shots, args.epsilon, args.seed)
    _write_json({"coverage": cov, "epsilon": args.epsilon})
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser (its subparsers take the class), but a usage error
    raises ValueError, so ``main`` exits 1 with its record, not 2 (ABSTAIN)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise ValueError(message)


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command (None: of every command), built on the
    first call for that command and shared by every later one, so callers
    must not modify it.  Parsing and formatting leave it unchanged, and
    argparse reads the terminal width only when it formats."""
    parser = _Parser(
        prog="qhtcert",
        description="Certify adversarial robustness of quantum classifiers.",
    )
    names = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)

    if command in (None, "certify"):
        p = sub.add_parser("certify", help="sample a classifier and emit a certificate (exit 2 on ABSTAIN)")
        p.add_argument("--classifier", required=True, help="classifier JSON file")
        p.add_argument("--state", required=True, help="benign state JSON file (density or pure)")
        p.add_argument("--shots", type=int, required=True, help="number of measurement shots N")
        p.add_argument("--epsilon", type=float, required=True, help="confidence parameter in (0, 1)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (counter-based Philox)")
        p.add_argument("--smooth-p", type=float, default=None, help="depolarization smoothing parameter")
        p.add_argument("--mode", choices=("protocol", "extended"), default="protocol",
                       help="certification mode; --smooth-p takes protocol only")
        p.add_argument("--output", default=None, help="write certificate JSON here instead of stdout")
        p.set_defaults(func=cmd_certify)

    if command in (None, "bounds"):
        p = sub.add_parser("bounds", help="one CSV row of closed-form radii at (pA, pB, p)")
        p.add_argument("--pA", type=float, required=True)
        p.add_argument("--pB", type=float, required=True)
        p.add_argument("--p", type=float, default=0.0, help="depolarization parameter (0 = unsmoothed)")
        p.add_argument("--output", default=None)
        p.set_defaults(func=cmd_bounds)

    if command in (None, "compare-pure"):
        p = sub.add_parser("compare-pure", help="CSV difference grids of the pure-state radii")
        p.add_argument("--grid", type=int, default=100, help="grid resolution per axis")
        p.add_argument("--output", default=None)
        p.set_defaults(func=cmd_compare_pure)

    if command in (None, "compare-depol"):
        p = sub.add_parser("compare-depol", help="CSV curves of the smoothed radii over (p, pA)")
        p.add_argument(
            "--p",
            default="0.05,0.15,0.25,0.35,0.45,0.55,0.65,0.75,0.85,0.95",
            help="comma-separated depolarization parameters",
        )
        p.add_argument("--grid", type=int, default=99, help="number of pA points in (0.5, 1)")
        p.add_argument("--output", default=None)
        p.set_defaults(func=cmd_compare_depol)

    if command in (None, "toy-example"):
        p = sub.add_parser("toy-example", help="check the worked single-qubit numbers (PASS/FAIL)")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=cmd_toy_example)

    if command in (None, "oracle"):
        p = sub.add_parser("oracle", help="brute-force verifiers")
        osub = p.add_subparsers(dest="oracle_cmd", required=True, metavar="{min-beta,boundary,coverage}")

        q = osub.add_parser("min-beta", help="random search for the minimal type-II error")
        q.add_argument("--null", required=True, help="null-hypothesis state JSON (benign)")
        q.add_argument("--alt", required=True, help="alternative state JSON (adversarial)")
        q.add_argument("--alpha0", type=float, required=True)
        q.add_argument("--samples", type=int, default=100_000)
        q.add_argument("--seed", type=int, default=0)
        q.set_defaults(func=cmd_oracle_min_beta)

        q = osub.add_parser("boundary", help="angle search for the certified-radius boundary")
        q.add_argument("--pA", type=float, required=True)
        q.add_argument("--pB", type=float, required=True)
        q.add_argument("--reference", default=None, help="pure reference state JSON (default |0>)")
        q.add_argument("--samples", type=int, default=60,
                       help="the search stops at angle bracket width pi*2^-samples")
        q.add_argument("--seed", type=int, default=0)
        q.set_defaults(func=cmd_oracle_boundary)

        q = osub.add_parser("coverage", help="empirical coverage of the confidence bound")
        q.add_argument("--classifier", required=True)
        q.add_argument("--state", required=True)
        q.add_argument("--trials", type=int, default=10_000)
        q.add_argument("--shots", type=int, default=1_000)
        q.add_argument("--epsilon", type=float, default=0.05)
        q.add_argument("--seed", type=int, default=0)
        q.set_defaults(func=cmd_oracle_coverage)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (QhtcertError, ValueError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

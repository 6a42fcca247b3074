import argparse
import hashlib
import json
import sys

import numpy as np
import pytest

from qhtcert import Classifier, Povm, PureState, demo, identity_kraus, serialize
from qhtcert.cli import COMMANDS, build_parser, main


@pytest.fixture
def demo_files(tmp_path):
    cl_path = tmp_path / "classifier.json"
    state_path = tmp_path / "state.json"
    serialize.save_json(serialize.classifier_to_json(demo.hemisphere_classifier()), cl_path)
    serialize.save_json(serialize.pure_to_json(demo.benign_state()), state_path)
    return str(cl_path), str(state_path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# parser


def subparser(parser, path):
    """The parser of the command path, e.g. ("oracle", "boundary")."""
    for name in path:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


def test_full_parser_has_every_command_in_order():
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(action.choices) == COMMANDS


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize(
    "path",
    [(name,) for name in COMMANDS] + [("oracle", name) for name in ("min-beta", "boundary", "coverage")],
    ids=" ".join,
)
def test_one_command_parser_formats_like_the_full_parser(monkeypatch, path, columns):
    monkeypatch.setenv("COLUMNS", columns)
    one, full = build_parser(path[0]), build_parser()
    assert one.format_usage() == full.format_usage()
    assert subparser(one, path).format_help() == subparser(full, path).format_help()
    assert subparser(one, path).format_usage() == subparser(full, path).format_usage()


_TOP_USAGE = """usage: qhtcert [-h]
               {certify,bounds,compare-pure,compare-depol,toy-example,oracle}
               ...
"""


@pytest.mark.parametrize("argv, message", [
    (("bounds", "--pA", "0.9", "--pB", "0.1", "extra"), "unrecognized arguments: extra"),
    (("toy-example", "extra", "more"), "unrecognized arguments: extra more"),
    ((), "the following arguments are required: command"),
    (("certfy",), "argument command: invalid choice: 'certfy' (choose from 'certify', 'bounds', "
                  "'compare-pure', 'compare-depol', 'toy-example', 'oracle')"),
], ids=["unrecognized", "unrecognized-two", "required", "invalid-choice"])
def test_parser_errors_print_the_top_level_usage(monkeypatch, capsys, argv, message):
    # A usage error is an error (exit 1, not 2, which means ABSTAIN), with its
    # JSON error record as the last line.
    monkeypatch.setenv("COLUMNS", "80")
    record = json.dumps({"error": "ValueError", "message": message}, sort_keys=True)
    assert run(capsys, *argv) == (1, "", _TOP_USAGE + f"qhtcert: error: {message}\n{record}\n")


@pytest.mark.parametrize("argv, prog, message", [
    (("certify", "--classifier", "c.json", "--state", "s.json", "--shots", "abc", "--epsilon", "0.1"),
     "qhtcert certify", "argument --shots: invalid int value: 'abc'"),
    (("bounds", "--pA", "0.9"), "qhtcert bounds", "the following arguments are required: --pB"),
    (("oracle", "boundary", "--pA", "0.9", "--pB", "x"), "qhtcert oracle boundary", "argument --pB: invalid float value: 'x'"),
], ids=["bad-int", "missing", "oracle-bad-float"])
def test_command_usage_errors_exit_1_with_an_error_record(capsys, argv, prog, message):
    rc, out, err = run(capsys, *argv)
    lines = err.splitlines()
    assert (rc, out) == (1, "")
    assert lines[0].startswith(f"usage: {prog} ")
    assert lines[-2:] == [f"{prog}: error: {message}", json.dumps({"error": "ValueError", "message": message}, sort_keys=True)]


def test_oracle_with_no_subcommand_names_its_choices(capsys):
    # As at the top level, a missing command reads as its choices, not as
    # the parser's internal dest.
    message = "the following arguments are required: {min-beta,boundary,coverage}"
    rc, out, err = run(capsys, "oracle")
    lines = err.splitlines()
    assert (rc, out) == (1, "")
    assert lines[0].startswith("usage: qhtcert oracle ")
    assert lines[-2:] == [f"qhtcert oracle: error: {message}", json.dumps({"error": "ValueError", "message": message}, sort_keys=True)]


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["bounds", "--pA", "0.9", "--pB", "0.1"]) == 0
    assert calls == ["bounds"]
    # The console script passes no argv: the command comes from sys.argv.
    monkeypatch.setattr(sys, "argv", ["qhtcert", "oracle", "boundary", "--pA", "0.9", "--pB", "0.1"])
    calls.clear()
    assert main() == 0
    assert calls == ["oracle", "min-beta", "boundary", "coverage"]
    calls.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert calls[:len(COMMANDS)] == list(COMMANDS)


# ---------------------------------------------------------------------------
# bounds


def test_bounds_row_values(capsys):
    rc, out, _ = run(capsys, "bounds", "--pA", "0.9", "--pB", "0.1")
    assert rc == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["r_qht_pure"]) == pytest.approx(0.44721, abs=1e-5)
    assert float(cols["r_hoelder"]) == pytest.approx(0.4, abs=1e-12)
    assert float(cols["r_qht_pure_mixed_main"]) == pytest.approx(0.04721, abs=1e-5)
    assert float(cols["r_qht_pure_mixed_appendix"]) == pytest.approx(0.01132, abs=1e-5)
    assert cols["r_depol_qht"] == ""


def test_bounds_with_smoothing(capsys):
    rc, out, _ = run(capsys, "bounds", "--pA", "0.9", "--pB", "0.1", "--p", "0.2")
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[7]) == pytest.approx(0.670820393, abs=1e-8)
    assert float(row[8]) == pytest.approx(0.5, abs=1e-12)
    assert float(row[9]) == pytest.approx(0.25, abs=1e-12)


def test_bounds_output_is_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bounds", "--pA", "0.77", "--pB", "0.12", "--output", str(a)]) == 0
    assert main(["bounds", "--pA", "0.77", "--pB", "0.12", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("p", ["1.5", "1", "-1", "nan"])
def test_bounds_rejects_smoothing_outside_unit_interval(capsys, p):
    rc, out, err = run(capsys, "bounds", "--pA", "0.9", "--pB", "0.1", "--p", p)
    assert rc == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_bounds_rejects_bad_order(capsys):
    rc, _, err = run(capsys, "bounds", "--pA", "0.3", "--pB", "0.6")
    assert rc == 1
    record = json.loads(err)
    assert record["error"] == "InvalidProbabilityOrder"


# ---------------------------------------------------------------------------
# grids


def test_compare_pure_grid(capsys):
    rc, out, _ = run(capsys, "compare-pure", "--grid", "12")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("pA,pB,")
    for line in lines[1:]:
        vals = dict(zip(lines[0].split(","), map(float, line.split(","))))
        assert vals["d_qht_minus_hoelder"] >= -1e-12
        assert vals["d_hoelder_minus_mixed_main"] >= -1e-12
        assert vals["d_hoelder_minus_mixed_appendix"] >= -1e-12


def test_compare_depol_grid(capsys):
    rc, out, _ = run(capsys, "compare-depol", "--p", "0.5", "--grid", "12")
    assert rc == 0
    lines = out.strip().splitlines()
    saturated = 0
    for line in lines[1:]:
        p, p_a, r_q, r_h, r_d = map(float, line.split(","))
        assert r_q >= r_h - 1e-12
        assert r_q >= r_d - 1e-12
        threshold = (4 - 3 * p) / (4 - 2 * p)
        if p_a > threshold:
            assert r_q == 1.0
            saturated += 1
    assert saturated > 0


@pytest.mark.parametrize("argv,digest", [
    (("compare-depol",), "dd186dda112d6a6b4a4a710809269f68a59ae9a3a77ce66d6773f53a30e58e64"),
    (("compare-depol", "--grid", "100"), "c93ccf3fbf2050b049b15dde17bdaec4e17c499636aeada1b5816106a19e80ab"),
    (("compare-pure",), "bb8167e959c578cb101e2eac921eb906b0eeaba41c2bf157116c548c420dbbe0"),
    (("bounds", "--pA", "0.9", "--pB", "0.1", "--p", "0.2"), "36b8c5545c476f42c1b9fcbc756aad7e419d951ffd716dbcd58a4bfa82e5e022"),
], ids=["defaults", "grid-100", "compare-pure-defaults", "bounds-p0.2"])
def test_compare_depol_csv_is_pinned(capsys, argv, digest):
    # The CSVs must stay byte-stable: the smoothed curves (defaults, and the
    # figure grid), the pure-radius grid and one smoothed bounds row.
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# toy example


def test_toy_example_passes(capsys):
    rc, out, _ = run(capsys, "toy-example")
    assert rc == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# certify


def test_certify_writes_certificate(tmp_path, demo_files, capsys):
    cl_path, state_path = demo_files
    out_path = tmp_path / "cert.json"
    rc = main([
        "certify", "--classifier", cl_path, "--state", state_path,
        "--shots", "100000", "--epsilon", "0.001", "--seed", "7",
        "--output", str(out_path),
    ])
    assert rc == 0
    record = json.loads(out_path.read_text())
    assert record["abstained"] is False
    assert record["radii"]["r_qht_pure"] == pytest.approx(0.44, abs=0.01)
    assert record["version"] == "0.1.0"


def test_certify_reads_labels_from_the_povm_object(tmp_path, demo_files, capsys):
    # The certificate hashes the classifier as re-serialised, so labels in
    # the "povm" object give the same bytes as labels at the top level.
    cl_path, state_path = demo_files
    obj = serialize.load_json(cl_path)
    obj["povm"]["labels"] = obj.pop("labels")
    povm_path = tmp_path / "povm_labels.json"
    serialize.save_json(obj, povm_path)
    outputs = [
        run(capsys, "certify", "--classifier", path, "--state", state_path, "--shots", "2000", "--epsilon", "0.01", "--seed", "3")
        for path in (cl_path, str(povm_path))
    ]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


def test_certify_abstains_with_exit_code_2(tmp_path, capsys):
    cl_path = tmp_path / "balanced.json"
    state_path = tmp_path / "state.json"
    serialize.save_json(serialize.classifier_to_json(demo.balanced_classifier()), cl_path)
    serialize.save_json(serialize.pure_to_json(demo.benign_state()), state_path)
    rc, out, _ = run(
        capsys,
        "certify", "--classifier", str(cl_path), "--state", str(state_path),
        "--shots", "1000", "--epsilon", "0.01", "--seed", "3",
    )
    assert rc == 2
    assert json.loads(out)["abstained"] is True


def test_certify_smoothed_flag(tmp_path, demo_files, capsys):
    cl_path, state_path = demo_files
    rc, out, _ = run(
        capsys,
        "certify", "--classifier", cl_path, "--state", state_path,
        "--shots", "50000", "--epsilon", "0.01", "--seed", "5",
        "--smooth-p", "0.2",
    )
    assert rc == 0
    record = json.loads(out)
    assert record["smoothing_p"] == 0.2
    assert record["radii"]["r_depol_qht"] is not None


def test_certify_smoothed_rejects_extended_mode(demo_files, capsys):
    cl_path, state_path = demo_files
    argv = ["certify", "--classifier", cl_path, "--state", state_path,
            "--shots", "1000", "--epsilon", "0.01", "--smooth-p", "0.2"]
    rc, out, err = run(capsys, *argv, "--mode", "extended")
    assert rc == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"
    rc, out, _ = run(capsys, *argv, "--mode", "protocol")
    assert rc == 0
    assert json.loads(out)["mode"] == "protocol"


def test_certify_smoothed_one_dimensional_state_is_error(tmp_path, capsys):
    cl_path = tmp_path / "classifier.json"
    state_path = tmp_path / "state.json"
    cl = Classifier(identity_kraus(1), Povm((np.array([[1.0]]), np.array([[0.0]])), (0, 1)))
    serialize.save_json(serialize.classifier_to_json(cl), cl_path)
    serialize.save_json(serialize.pure_to_json(PureState([1.0])), state_path)
    rc, out, err = run(
        capsys,
        "certify", "--classifier", str(cl_path), "--state", str(state_path),
        "--shots", "1000", "--epsilon", "0.01", "--smooth-p", "0.2",
    )
    assert rc == 1
    assert out == ""
    assert json.loads(err)["error"] == "OutOfRegime"


def test_certify_missing_file_is_error(capsys, tmp_path):
    rc, _, err = run(
        capsys,
        "certify", "--classifier", str(tmp_path / "nope.json"),
        "--state", str(tmp_path / "nope.json"),
        "--shots", "10", "--epsilon", "0.5",
    )
    assert rc == 1
    assert "error" in json.loads(err)


_IDENTITY = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
_WRONG_SHAPES = (
    {"dim": 3, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0]]},
    {"rows": 2, "cols": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]},
)


@pytest.mark.parametrize(
    "role, record",
    [
        ("state", [1, 2]),
        ("classifier", [1, 2]),
        ("state", "not a record"),
        ("state", 5),
        ("state", {"re": {"a": 1}, "im": [[0.0]], "dim": 1}),
        ("state", {"re": [[1.0]], "im": [[0.0]], "dim": [1]}),
        ("state", {"amplitudes_re": [1.0, {}], "amplitudes_im": [0.0, 0.0]}),
        ("classifier", {"channel": 5, "povm": {}}),
        ("classifier", {"channel": {"kraus": 5}, "povm": {"elements": [_IDENTITY]}}),
        ("classifier", {"channel": {"kraus": [[1.0]]}, "povm": {"elements": [_IDENTITY]}}),
        ("classifier", {"channel": {"kraus": [_IDENTITY]}, "povm": [_IDENTITY]}),
        ("classifier", {"channel": {"kraus": [_IDENTITY]}, "povm": {"elements": _IDENTITY}}),
        ("classifier", {"labels": 5, "channel": {"kraus": [_IDENTITY]}, "povm": {"elements": [_IDENTITY]}}),
        # Missing keys.
        ("state", {"amplitudes_re": [1.0, 0.0]}),
        ("state", {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]}),
        ("classifier", {"channel": {"kraus": [_IDENTITY]}}),
        ("classifier", {"channel": {}, "povm": {"elements": [_IDENTITY]}}),
        ("classifier", {"channel": {"kraus": [{"dim": 2, "re": _IDENTITY["re"]}]}, "povm": {"elements": [_IDENTITY]}}),
        # Amplitude arrays of different lengths, which would broadcast to (0.6i, 0.8i).
        ("state", {"amplitudes_re": [0], "amplitudes_im": [0.6, 0.8]}),
        # Strings, booleans and nulls in place of numbers.
        ("state", {"dim": 2, "re": [["1", 0], [0, 0]], "im": [[0, 0], [0, 0]]}),
        ("state", {"dim": 2, "re": [[True, 0], [0, False]], "im": [[0, 0], [0, 0]]}),
        ("state", {"amplitudes_re": [1.0, None], "amplitudes_im": [0.0, 0.0]}),
        ("state", {"amplitudes_re": "1", "amplitudes_im": 0}),
        # Data of another shape than declared.
        *(("state", record) for record in _WRONG_SHAPES),
    ],
)
def test_certify_rejects_malformed_json_with_error_record(tmp_path, demo_files, capsys, role, record):
    paths = dict(zip(("classifier", "state"), demo_files))
    paths[role] = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text(json.dumps(record))
    rc, _, err = run(
        capsys,
        "certify", "--classifier", paths["classifier"], "--state", paths["state"],
        "--shots", "10", "--epsilon", "0.5",
    )
    assert rc == 1
    assert json.loads(err)["error"] == "ValidationError"


def test_certify_rejects_repeated_labels_with_error_record(tmp_path, demo_files, capsys):
    record = serialize.classifier_to_json(demo.hemisphere_classifier())
    record["labels"] = [0, 0]
    (tmp_path / "bad.json").write_text(json.dumps(record))
    rc, out, err = run(
        capsys,
        "certify", "--classifier", str(tmp_path / "bad.json"), "--state", demo_files[1],
        "--shots", "1000", "--epsilon", "0.05", "--mode", "extended",
    )
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "message": "class labels must be distinct, got [0, 0]"}


@pytest.mark.parametrize(
    "record, error",
    [(record, "ValidationError") for record in _WRONG_SHAPES]
    # Mixed, though within 1e-10 of a pure state.
    + [({"dim": 2, "re": [[1.0 - 1e-10, 0.0], [0.0, 1e-10]], "im": [[0.0, 0.0], [0.0, 0.0]]}, "ValueError")],
)
def test_oracle_boundary_rejects_bad_reference_with_error_record(tmp_path, capsys, record, error):
    reference = tmp_path / "ref.json"
    reference.write_text(json.dumps(record))
    rc, out, err = run(capsys, "oracle", "boundary", "--pA", "0.9", "--pB", "0.1", "--reference", str(reference))
    assert (rc, out) == (1, "")
    assert json.loads(err)["error"] == error


def test_certificates_identical_across_runs(tmp_path, demo_files):
    cl_path, state_path = demo_files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main([
            "certify", "--classifier", cl_path, "--state", state_path,
            "--shots", "2000", "--epsilon", "0.05", "--seed", "11",
            "--output", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# oracle subcommands


def test_oracle_boundary(capsys):
    rc, out, _ = run(capsys, "oracle", "boundary", "--pA", "0.9", "--pB", "0.1")
    assert rc == 0
    record = json.loads(out)
    assert record["trace_distance"] == pytest.approx(0.4472135955, abs=1e-6)
    assert record["theta"] == pytest.approx(0.9272952180, abs=1e-3)


def test_oracle_min_beta(tmp_path, capsys):
    null_path = tmp_path / "null.json"
    alt_path = tmp_path / "alt.json"
    serialize.save_json(serialize.pure_to_json(demo.benign_state()), null_path)
    serialize.save_json(serialize.pure_to_json(demo.adversarial_state()), alt_path)
    rc, out, _ = run(
        capsys,
        "oracle", "min-beta", "--null", str(null_path), "--alt", str(alt_path),
        "--alpha0", "0.1", "--samples", "20000", "--seed", "5",
    )
    assert rc == 0
    record = json.loads(out)
    assert record["best_value"] >= 0.44019237 - 1e-8
    assert record["best_value"] == pytest.approx(0.4402, abs=0.02)


def test_oracle_min_beta_rejects_mismatched_dimensions(tmp_path, capsys):
    null_path = tmp_path / "null.json"
    alt_path = tmp_path / "alt.json"
    serialize.save_json(serialize.pure_to_json(demo.benign_state()), null_path)
    serialize.save_json(serialize.pure_to_json(PureState([1.0, 0.0, 0.0, 0.0])), alt_path)
    rc, out, err = run(
        capsys,
        "oracle", "min-beta", "--null", str(null_path), "--alt", str(alt_path),
        "--alpha0", "0.1", "--samples", "1000",
    )
    assert rc == 1
    assert out == ""
    assert json.loads(err)["error"] == "DimMismatch"


def test_oracle_coverage(tmp_path, demo_files, capsys):
    cl_path, state_path = demo_files
    rc, out, _ = run(
        capsys,
        "oracle", "coverage", "--classifier", cl_path, "--state", state_path,
        "--trials", "2000", "--shots", "500", "--epsilon", "0.05", "--seed", "2",
    )
    assert rc == 0
    assert json.loads(out)["coverage"] >= 0.94


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--classifier", "{classifier}", "--state", "{state}", "--shots", "100", "--epsilon", "0.01",
         "--output", "{tmp}/cert.json"),
        ("toy-example",),
        ("oracle", "min-beta", "--null", "{state}", "--alt", "{state}", "--alpha0", "0.1", "--samples", "1000"),
        ("oracle", "boundary", "--pA", "0.9", "--pB", "0.1"),
        ("oracle", "coverage", "--classifier", "{classifier}", "--state", "{state}", "--trials", "1000"),
    ],
    ids=lambda argv: " ".join(argv[:2]) if argv[0] == "oracle" else argv[0],
)
def test_negative_seed_error_record_names_the_seed(tmp_path, demo_files, capsys, argv):
    cl_path, state_path = demo_files
    filled = [a.format(classifier=cl_path, state=state_path, tmp=tmp_path) for a in argv]
    rc, out, err = run(capsys, *filled, "--seed", "-1")
    assert rc == 1
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "seed must be a non-negative integer, got -1"}


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "boundary", "--pA", "0.9", "--pB", "0.1", "--samples", "0"),
        ("oracle", "boundary", "--pA", "0.9", "--pB", "0.1", "--samples", "-3"),
        ("compare-depol", "--grid", "0"),
        ("compare-depol", "--grid", "-2"),
        ("compare-pure", "--grid", "0"),
        ("compare-pure", "--grid", "-2"),
        ("compare-depol", "--p", ""),
        ("compare-depol", "--p", ","),
    ],
)
def test_nonpositive_counts_are_rejected_with_error_record(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "option",
    [("--shots", "0"), ("--shots", "-5"), ("--epsilon", "0"), ("--epsilon", "1"), ("--epsilon", "1.5")],
)
def test_oracle_coverage_rejects_bad_arguments_with_error_record(demo_files, capsys, option):
    cl_path, state_path = demo_files
    rc, out, err = run(
        capsys,
        "oracle", "coverage", "--classifier", cl_path, "--state", state_path,
        "--trials", "1000", *option,
    )
    assert rc == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"

"""The CLI's one output boundary: handlers return their report, and
``dispatch`` alone writes it to --out or stdout, writes the manifest
(derived from the parsed arguments) and the one error line."""

import hashlib
import json
from pathlib import Path

import pytest

from fddilab import InputError
from fddilab.cli import INPUT_OPTIONS, build_parser, dispatch

GOLDEN = Path(__file__).parent / "golden" / "cli"
TABLE = Path(__file__).parents[1] / "src" / "fddilab" / "data" / "4b5b_table.txt"


def run(argv, capsys):
    code = dispatch([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _manifest(tmp_path, capsys, argv, name="m.json"):
    path = tmp_path / name
    run([*argv, "--manifest", path], capsys)
    return json.loads(path.read_text())


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_runs_differing_in_initial_level_or_format_have_different_manifests(tmp_path, capsys):
    base = ["codec", "nrzi", "--in", GOLDEN / "code.bits"]
    plain = _manifest(tmp_path, capsys, base)
    high = _manifest(tmp_path, capsys, [*base, "--initial-level", "high"])
    json_fmt = _manifest(tmp_path, capsys, [*base, "--format", "json"])
    assert plain != high and plain != json_fmt and high != json_fmt
    assert plain["parameters"] == {"scheme": "nrzi", "decode": False,
                                   "initial_level": "low", "format": "csv"}
    assert high["parameters"]["initial_level"] == "high"
    assert json_fmt["parameters"]["format"] == "json"
    rates = _manifest(tmp_path, capsys, ["rates"])
    assert rates != _manifest(tmp_path, capsys, ["rates", "--format", "json"])


@pytest.mark.parametrize("argv,flags", [
    (["rates"], []),
    (["codec", "4b5b", "--in", "{dir}/nibbles.hex"], ["--in"]),
    (["scrambler", "dump", "--bits", "9"], []),
    (["scrambler", "analyze"], []),
    (["scrambler", "analyze", "--table", "{table}"], ["--table"]),
    (["sonet-map", "--in", "{dir}/spe.bits", "--report", "{tmp}/report"], ["--in"]),
    (["simulate", "--config", "{dir}/violations.json", "--duration", "10"], ["--config"]),
    (["fddi2", "plan", "--modes", "i" * 16, "--requests", "{dir}/requests.txt"],
     ["--requests"]),
    (["plan", "--ring", "{dir}/ring_fail.json"], ["--ring"]),
])
def test_manifest_inputs_are_the_input_flags(argv, flags, tmp_path, capsys):
    argv = [a.format(dir=GOLDEN, tmp=tmp_path, table=TABLE) for a in argv]
    manifest = _manifest(tmp_path, capsys, [*argv, "--out", tmp_path / "out"])
    paths = [argv[argv.index(flag) + 1] for flag in flags]
    assert manifest["inputs"] == {path: _sha(path) for path in paths}
    assert manifest["subcommand"] == argv[0]
    # every other parsed option is a parameter; output routing and seed are not
    assert not set(manifest["parameters"]) & {"out", "manifest", "report", "seed",
                                              "command", "handler", *INPUT_OPTIONS}
    assert manifest["parameters"]["format"] == "csv"


def test_manifest_records_the_seed_and_every_option(tmp_path, capsys):
    manifest = _manifest(tmp_path, capsys, [
        "simulate", "--config", GOLDEN / "violations.json", "--duration", "250.5",
        "--seed", "7", "--format", "json"])
    assert manifest["seed"] == 7
    assert manifest["parameters"] == {"duration": 250.5, "format": "json"}
    fddi2 = _manifest(tmp_path, capsys, ["fddi2", "plan", "--modes", "p,i" + "i" * 14,
                                         "--requests", GOLDEN / "requests.txt"])
    assert fddi2["parameters"] == {"action": "plan", "modes": "p,i" + "i" * 14,
                                   "format": "csv"}


def test_violation_rows_go_to_out_with_a_manifest(tmp_path, capsys):
    out, manifest = tmp_path / "out.csv", tmp_path / "m.json"
    code, stdout, err = run(["simulate", "--config", GOLDEN / "violations.json",
                             "--duration", "1000", "--out", out, "--manifest", manifest],
                            capsys)
    assert (code, stdout) == (1, "")
    assert out.read_bytes() == (GOLDEN / "simulate_violations.stdout").read_bytes()
    assert err == (GOLDEN / "simulate_violations.stderr").read_text()
    assert json.loads(manifest.read_text())["subcommand"] == "simulate"


def test_failing_ring_verdict_goes_to_out_with_a_manifest(tmp_path, capsys):
    out, manifest = tmp_path / "out.csv", tmp_path / "m.json"
    code, stdout, err = run(["plan", "--ring", GOLDEN / "ring_fail.json",
                             "--out", out, "--manifest", manifest], capsys)
    assert (code, stdout, err) == (1, "", "error: ring-verdict-fail\n")
    assert out.read_bytes() == (GOLDEN / "plan_fail.stdout").read_bytes()
    assert json.loads(manifest.read_text())["inputs"] == {
        str(GOLDEN / "ring_fail.json"): _sha(GOLDEN / "ring_fail.json")}


def test_an_input_error_writes_no_report_and_no_manifest(tmp_path, capsys):
    out, manifest = tmp_path / "out", tmp_path / "m.json"
    code, stdout, err = run(["codec", "4b5b", "--decode", "--in", GOLDEN / "control.bits",
                             "--out", out, "--manifest", manifest], capsys)
    assert (code, stdout, err) == (1, "", "error: control-symbol: I at symbol 1\n")
    assert not out.exists() and not manifest.exists()


def test_an_unwritable_out_is_one_file_error_line(tmp_path, capsys):
    code, stdout, err = run(["rates", "--out", tmp_path], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: file-error: {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("argv", [
    ["rates", "--level", "3"],
    ["codec", "mlt3", "--in", "{dir}/code.bits"],
    ["scrambler", "dump", "--bits", "40"],
    ["sonet-map", "--in", "{dir}/spe.bits", "--report", "{tmp}/report"],
    ["simulate", "--config", "{dir}/violations.json", "--duration", "10"],
    ["fddi2", "plan", "--modes", "i" * 16, "--requests", "{dir}/requests.txt"],
    ["plan", "--ring", "{dir}/ring_fail.json"],
])
def test_handlers_return_their_report_and_write_nothing(argv, tmp_path, capsys):
    argv = [a.format(dir=GOLDEN, tmp=tmp_path) for a in argv]
    args = build_parser().parse_args(argv)
    report, error = args.handler(args)
    assert capsys.readouterr().out == ""
    assert error is None or isinstance(error, InputError)
    code, stdout, _ = run(argv, capsys)
    assert (code, stdout) == (0 if error is None else 1, report)

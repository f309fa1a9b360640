"""The CLI's one output boundary: handlers return their report, and
``dispatch`` alone writes it to --out or stdout, writes the manifest
(derived from the parsed arguments) and the one error line."""

import errno
import hashlib
import json
import os
import stat
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


# --- the file writer: in place, cut to length -------------------------------

def test_a_shorter_report_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, capsys):
    out = tmp_path / "out.csv"
    out.write_bytes(b"stale\r\n" * 5000)
    assert run(["rates", "--level", "3", "--out", out], capsys) == (0, "", "")
    assert out.read_bytes() == run(["rates", "--level", "3"], capsys)[1].encode()


@pytest.mark.parametrize("old,cuts", [(None, 0), (b"", 0), (b"x", 0), ("same", 0), ("longer", 1)])
def test_only_a_longer_old_file_is_truncated(old, cuts, tmp_path, capsys, monkeypatch):
    expected = run(["rates"], capsys)[1].encode()
    out = tmp_path / "out.csv"
    if old is not None:
        out.write_bytes({"same": expected, "longer": expected + b"\n"}.get(old, old))
    calls = []
    real_ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: calls.append(n) or real_ftruncate(fd, n))
    assert run(["rates", "--out", out], capsys) == (0, "", "")
    assert out.read_bytes() == expected
    assert calls == [len(expected)] * cuts


def test_out_to_dev_null_exits_0():
    # /dev/null refuses ftruncate (EINVAL): a non-regular target is not cut
    assert dispatch(["rates", "--out", "/dev/null", "--manifest", "/dev/null"]) == 0


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_a_new_file_gets_mode_0666_less_the_umask(umask, tmp_path, capsys):
    old = os.umask(umask)
    try:
        code, _, _ = run(["rates", "--out", tmp_path / "out", "--manifest", tmp_path / "m"],
                         capsys)
    finally:
        os.umask(old)
    assert code == 0
    assert [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("out", "m")] == [
        0o666 & ~umask] * 2


def test_a_read_only_file_is_one_file_error_line_and_left_untouched(tmp_path, capsys,
                                                                     monkeypatch):
    out = tmp_path / "out.csv"
    out.write_bytes(b"keep me\n")
    out.chmod(0o444)
    if os.geteuid() == 0:   # root writes through file modes: refuse as the kernel would
        real_open = os.open

        def refusing_open(path, flags, *rest):
            if os.fspath(path) == str(out) and flags & (os.O_WRONLY | os.O_RDWR):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(path, flags, *rest)
        monkeypatch.setattr(os, "open", refusing_open)
    code, stdout, err = run(["rates", "--out", out], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: file-error: {out}: Permission denied\n"
    assert out.read_bytes() == b"keep me\n"


def _writes_then(fail_after, chunk, monkeypatch):
    """Patch os.write to write at most ``chunk`` bytes a call and, once
    ``fail_after`` bytes are written, raise ENOSPC."""
    real_write, done = os.write, []

    def write(fd, data):
        if sum(done) >= fail_after:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        done.append(real_write(fd, bytes(data[:chunk])))
        return done[-1]
    monkeypatch.setattr(os, "write", write)


def test_short_writes_are_resumed_until_every_byte_is_written(tmp_path, capsys, monkeypatch):
    expected = run(["rates"], capsys)[1].encode()
    out = tmp_path / "out.csv"
    out.write_bytes(b"x" * 4 * len(expected))
    _writes_then(len(expected), 7, monkeypatch)
    assert run(["rates", "--out", out], capsys) == (0, "", "")
    assert out.read_bytes() == expected


def test_a_write_failing_partway_leaves_no_byte_of_the_old_content(tmp_path, capsys,
                                                                    monkeypatch):
    expected = run(["rates"], capsys)[1].encode()
    out = tmp_path / "out.csv"
    out.write_bytes(b"\xff" * 4 * len(expected))
    _writes_then(100, 60, monkeypatch)
    code, stdout, err = run(["rates", "--out", out], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: file-error: {out}: No space left on device\n"
    assert out.read_bytes() == expected[:120]


# --- the manifest digests the inputs as they were before the run ------------

@pytest.mark.parametrize("argv,source", [
    (["codec", "4b5b", "--in", "{x}", "--out", "{x}"], "nibbles.hex"),
    (["codec", "4b5b", "--in", "{x}", "--manifest", "{x}"], "nibbles.hex"),
    (["sonet-map", "--in", "{x}", "--report", "{x}"], "spe.bits"),
    (["sonet-map", "--in", "{x}", "--out", "{x}", "--manifest", "{x}"], "spe.bits"),
])
def test_the_manifest_digests_an_input_as_it_was_before_any_output(argv, source, tmp_path,
                                                                   capsys):
    x = tmp_path / source
    x.write_bytes((GOLDEN / source).read_bytes())
    argv = [a.format(x=x) for a in argv]
    if "--manifest" not in argv:
        argv += ["--manifest", tmp_path / "m.json"]
    manifest = Path(argv[argv.index("--manifest") + 1])
    assert run(argv, capsys)[0] == 0
    assert _sha(x) != _sha(GOLDEN / source)   # the run overwrote its input
    assert json.loads(manifest.read_text())["inputs"] == {str(x): _sha(GOLDEN / source)}


@pytest.mark.parametrize("argv", [
    ["fddi2", "plan", "--modes", "ii", "--requests", "{tmp}/missing"],   # bad-modes first
    ["fddi2", "plan", "--modes", "i" * 16, "--requests", "{tmp}/missing"],
    ["codec", "nrzi", "--in", "{tmp}"],
    ["plan", "--ring", "{tmp}/missing", "--out", "{tmp}/missing"],
])
def test_a_manifest_keeps_the_error_line_of_a_missing_or_unreadable_input(argv, tmp_path,
                                                                          capsys):
    argv = [a.format(tmp=tmp_path) for a in argv]
    manifest = tmp_path / "m.json"
    plain = run(argv, capsys)
    assert plain[0] == 1
    assert run([*argv, "--manifest", manifest], capsys) == plain
    assert not manifest.exists() and not (tmp_path / "missing").exists()


def test_a_missing_input_the_run_never_read_still_fails_its_manifest(tmp_path, capsys):
    missing = tmp_path / "missing"
    argv = ["scrambler", "dump", "--bits", "9", "--table", missing]
    code, keystream, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert run([*argv, "--manifest", tmp_path / "m.json"], capsys) == (
        1, keystream, f"error: missing-file: {missing}: No such file or directory\n")


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_a_pipe_input_is_read_by_the_run_not_drained_by_the_manifest(tmp_path, capsys):
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (GOLDEN / "code.bits").read_bytes())
        os.close(write_end)
        code, stdout, _ = run(["codec", "nrzi", "--in", f"/dev/fd/{read_end}",
                               "--manifest", tmp_path / "m.json"], capsys)
    finally:
        os.close(read_end)
    assert (code, stdout) == run(["codec", "nrzi", "--in", GOLDEN / "code.bits"], capsys)[:2]
    # only the run reads a pipe: hashing it afterwards would digest no bytes
    path = f"/dev/fd/{read_end}"
    assert json.loads((tmp_path / "m.json").read_text())["inputs"] == {path: None}

"""Start-up stays light. Every ``fddilab`` call is a fresh process, and
importing the package costs more than most commands' work, so the CLI
with both default tables loaded pulls in neither ``dataclasses`` (with
``inspect``, ``ast`` and ``dis`` behind it), nor ``importlib.resources``
(with ``tempfile`` and ``shutil``), nor ``hashlib``, which only a
manifest needs, nor ``typing``, as a record is a ``fddilab.record``,
which never reads its string annotations. Nor does it load a handler's
module before that handler runs: ``mac_sim``, ``fddi2``, ``spm`` and
``scrambler`` load with their subcommand, ``fractions`` (with
``decimal``) with the exact arithmetic of ``mac_sim``, which no other
subcommand runs, and ``json`` (with ``re``) with a JSON report, a
manifest or an input file in JSON.
``argparse`` (with ``gettext`` and ``re``) loads only for a command line
that is not plainly spelled: help, usage and usage errors. The
interpreter runs without ``site``, whose start-up hooks may import any
of these first."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import fddilab

SRC = Path(fddilab.__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"
CODE_BITS = GOLDEN / "cli" / "code.bits"
WATCHED = {"dataclasses", "inspect", "hashlib", "importlib.resources", "fractions", "decimal",
           "json", "argparse", "gettext", "typing", "re",
           "fddilab.mac_sim", "fddilab.fddi2", "fddilab.spm", "fddilab.scrambler"}

# a fresh interpreter: the watched modules the import and the tables
# load, then those one run of the CLI in the same process adds
STARTUP = """
import sys
sys.path.insert(0, sys.argv[1])
watched = set(sys.argv[2].split(","))
before = set(sys.modules)
import fddilab.cli
from fddilab import link_planner, phy_codec
phy_codec.default_code_table()
link_planner.default_media_table()
startup = sorted(watched & (set(sys.modules) - before))
code = fddilab.cli.dispatch(sys.argv[3:])
print(repr((startup, sorted(watched & (set(sys.modules) - before)), code)))
"""


def _fresh_process(*argv) -> tuple[str, str, tuple[list[str], list[str], int]]:
    """The run's stdout, its stderr and (watched modules loaded at start-up,
    those loaded by the end of the run, the exit code) of one fresh
    ``python -I -S`` process, whose help and usage text is 80 columns wide."""
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", STARTUP, str(SRC),
                           ",".join(sorted(WATCHED)), *argv], env={**os.environ, "COLUMNS": "80"},
                          capture_output=True, text=True, timeout=60, check=True)
    *out, last = proc.stdout.splitlines(keepends=True)
    return "".join(out), proc.stderr, ast.literal_eval(last)


def _fresh_run(*argv) -> tuple[list[str], list[str], int]:
    return _fresh_process(*argv)[2]


def test_the_cli_and_its_tables_load_no_dataclasses_inspect_or_hashlib(tmp_path):
    manifest = tmp_path / "m.json"
    startup, run, code = _fresh_run("codec", "nrzi", "--in", str(CODE_BITS),
                                    "--out", str(tmp_path / "out"), "--manifest", str(manifest))
    assert (startup, run, code) == ([], ["hashlib", "json", "re"], 0)
    digest = hashlib.sha256(CODE_BITS.read_bytes()).hexdigest()
    assert json.loads(manifest.read_text())["inputs"] == {str(CODE_BITS): digest}


def test_scrambler_dump_loads_only_the_scrambler(tmp_path):
    out = tmp_path / "out"
    assert _fresh_run("scrambler", "dump", "--out", str(out)) == ([], ["fddilab.scrambler"], 0)
    assert out.read_bytes() == (GOLDEN / "cli" / "dump_out.out").read_bytes()


def test_scrambler_analyze_loads_only_the_scrambler():
    """The analyzer's walk windows are built as the scrambler loads, from
    nothing heavier than the scrambler itself."""
    stdout, _, result = _fresh_process("scrambler", "analyze")
    assert result == ([], ["fddilab.scrambler"], 0)
    assert stdout == (GOLDEN / "cli" / "analyze.stdout").read_text()


def test_simulate_runs_in_a_fresh_process(tmp_path):
    out = tmp_path / "out"
    startup, run, code = _fresh_run(
        "simulate", "--config", str(GOLDEN / "simulate" / "readme.json"),
        "--duration", "50000", "--seed", "1", "--out", str(out))
    assert (startup, code) == ([], 0)
    assert {"fddilab.mac_sim", "fractions", "json"} <= set(run)
    assert out.read_bytes() == (GOLDEN / "simulate" / "readme.out.csv").read_bytes()


def test_rates_loads_only_spm():
    """The rate table counts whole kbps: it loads neither ``fractions`` nor ``re``."""
    stdout, _, result = _fresh_process("rates")
    assert result == ([], ["fddilab.spm"], 0)
    assert stdout == (GOLDEN / "cli" / "rates.stdout").read_text()


def test_sonet_map_loads_only_spm():
    """The layout and both bandwidth figures need neither ``fractions`` nor ``re``."""
    stdout, stderr, result = _fresh_process("sonet-map", "--in", str(GOLDEN / "cli" / "spe.bits"))
    assert result == ([], ["fddilab.spm"], 0)
    assert stdout == (GOLDEN / "cli" / "sonet_map.stdout").read_text()
    assert stderr == (GOLDEN / "cli" / "sonet_map.stderr").read_text()


def test_fddi2_plan_loads_no_fractions():
    """The cycle planner counts whole bytes: it loads only ``fddi2``."""
    stdout, _, result = _fresh_process("fddi2", "plan", "--modes", "piiipipiiiiiiiii",
                                    "--requests", str(GOLDEN / "cli" / "requests.txt"))
    assert result == ([], ["fddilab.fddi2"], 0)
    assert stdout == (GOLDEN / "cli" / "fddi2_csv.stdout").read_text()


def test_plainly_spelled_command_lines_load_no_argparse(tmp_path):
    out = tmp_path / "out"
    assert _fresh_run("codec", "nrzi", "--in", str(CODE_BITS), "--out", str(out)) == ([], [], 0)
    assert out.read_bytes() == (GOLDEN / "cli" / "nrzi_low.stdout").read_bytes()
    stdout, _, result = _fresh_process("plan", "--ring", str(GOLDEN / "cli" / "ring_pass.json"),
                                       "--format", "json")
    assert result == ([], ["json", "re"], 0)
    assert stdout == (GOLDEN / "cli" / "plan_pass_json.out").read_text()


def test_help_and_usage_errors_load_argparse():
    """argparse reads what the table's matcher leaves, and writes the same
    usage and help text as ever."""
    for name, argv in [("usage_unknown_option", ["codec", "--dur", "1"]), ("help", ["--help"])]:
        stdout, stderr, (startup, run, code) = _fresh_process(*argv)
        assert (startup, run) == ([], ["argparse", "gettext", "re"])
        assert (stdout, stderr, f"{code}\n") == tuple(
            (GOLDEN / "cli" / f"{name}.{suffix}").read_text() for suffix in
            ("stdout", "stderr", "exit"))

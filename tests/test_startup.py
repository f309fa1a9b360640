"""Start-up stays light. Every ``fddilab`` call is a fresh process, and
importing the package costs more than most commands' work, so the CLI
with both default tables loaded pulls in neither ``dataclasses`` (with
``inspect``, ``ast`` and ``dis`` behind it), nor ``importlib.resources``
(with ``tempfile`` and ``shutil``), nor ``hashlib``, which only a
manifest needs. The interpreter runs without ``site``, whose start-up
hooks may import any of these first."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import fddilab

SRC = Path(fddilab.__file__).parents[1]
CODE_BITS = Path(__file__).parent / "golden" / "cli" / "code.bits"

# a fresh interpreter: the modules the import and the tables load, then
# one --manifest run in the same process
STARTUP = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import fddilab.cli
from fddilab import link_planner, phy_codec
phy_codec.default_code_table()
link_planner.default_media_table()
loaded = sorted({"dataclasses", "inspect", "hashlib", "importlib.resources"}
                & (set(sys.modules) - before))
code = fddilab.cli.dispatch(sys.argv[2:])
print(json.dumps({"loaded": loaded, "code": code}))
"""


def test_the_cli_and_its_tables_load_no_dataclasses_inspect_or_hashlib(tmp_path):
    manifest = tmp_path / "m.json"
    argv = ["codec", "nrzi", "--in", str(CODE_BITS), "--out", str(tmp_path / "out"),
            "--manifest", str(manifest)]
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", STARTUP, str(SRC), *argv],
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == {"loaded": [], "code": 0}
    digest = hashlib.sha256(CODE_BITS.read_bytes()).hexdigest()
    assert json.loads(manifest.read_text())["inputs"] == {str(CODE_BITS): digest}

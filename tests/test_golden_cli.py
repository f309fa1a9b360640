"""Every CLI output stream against outputs recorded before the output
boundary moved into ``dispatch``.

Each line of ``golden/cli/cases.txt`` is one run: stdout, stderr, the exit
code and every file the run writes (``--out``, ``--report``) must match the
recorded bytes. Run this file as a script to record the outputs of the
code under test: ``PYTHONPATH=src python tests/test_golden_cli.py``.
Usage and help text is part of the contract, so argparse formats it for an
80-column terminal whatever the terminal running the tests.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from fddilab.cli import dispatch

GOLDEN = Path(__file__).parent / "golden" / "cli"


def _cases():
    for line in (GOLDEN / "cases.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = line.split()
            yield name, argv


def _run(argv) -> dict[str, bytes]:
    """Every output of one run, by the suffix of its golden file."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, COLUMNS="80"):
            code = dispatch([a.format(dir=GOLDEN, tmp=tmp) for a in argv])
        files = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
    return {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode(),
            "exit": f"{code}\n".encode(), **files}


@pytest.mark.parametrize("name,argv", list(_cases()))
def test_cli_outputs_match_golden(name, argv):
    want = {p.name[len(name) + 1:]: p.read_bytes()
            for p in GOLDEN.glob(f"{name}.*") if p.name.split(".")[0] == name}
    assert _run(argv) == want


if __name__ == "__main__":
    for name, argv in _cases():
        for suffix, data in _run(argv).items():
            (GOLDEN / f"{name}.{suffix}").write_bytes(data)

"""`simulate` stdout against outputs recorded with the exact-rational,
event-queue simulator that the integer-tick core replaced.

Each config in ``golden/simulate`` runs at the duration and seed listed in
``cases.txt``, in CSV and in JSON (JSON keeps every float digit). All but
the README config have a tick shorter than 1 us: D/n of 1000/49, 333.3/5,
12.5/3 and 250.3/13 us, durations of 33333.3 and 15000.7 us, and frames
of 53, 61, 97 and 333 bytes. readme, seventh and poisson13 have Poisson
sources and probes.
"""

from pathlib import Path

import pytest

from fddilab.cli import dispatch

GOLDEN = Path(__file__).parent / "golden" / "simulate"


def _cases():
    for line in (GOLDEN / "cases.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, duration, seed = line.split()
            for fmt in ("csv", "json"):
                yield name, duration, seed, fmt


@pytest.mark.parametrize("name,duration,seed,fmt", list(_cases()))
def test_simulate_stdout_matches_golden(name, duration, seed, fmt, capsys):
    code = dispatch(["simulate", "--config", str(GOLDEN / f"{name}.json"),
                     "--duration", duration, "--seed", seed, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out.{fmt}").read_bytes()

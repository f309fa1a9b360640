"""Single command-line entry point for all fddilab operations.

Every subcommand is deterministic: randomness flows only from --seed,
no output depends on wall-clock time or ambient state, and re-running
with identical inputs reproduces byte-identical output. Exit codes:
0 success, 1 domain errors (violations and failed verdicts, reported as
data with a one-line reason on stderr), 2 usage errors. Input files are
read by loaders in their modules, which raise InputError. Each ``cmd_*``
handler returns its report and, for a failing verdict, the InputError
that explains it; ``dispatch`` alone writes the report to --out or
stdout, writes the manifest and the error line, and picks the exit code.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import struct
import sys
from fractions import Fraction
from operator import attrgetter

from . import (InputError, __version__, fddi2, link_planner, mac_sim, phy_codec,
               read_input, scrambler, spm)
from .phy_codec import bits_from_text, bits_to_text

CSV = "csv"
JSON = "json"

GIVEN = "given"       # constant carried from the published figures
COMPUTED = "computed"  # value recomputed by this tool

_HEX_VALUES = bytes.maketrans(b"0123456789abcdefABCDEF", bytes(range(16)) + bytes(range(10, 16)))
_HEX_DIGITS = bytes.maketrans(bytes(range(16)), b"0123456789ABCDEF")
_MLT3_GLYPHS = bytes.maketrans(b"\xff\x00\x01", b"-0+")   # level as a signed byte


def emit_report(rows, columns: list[str], fmt: str) -> str:
    """Render rows, each its values in column order, as CSV or JSON;
    identical input, identical bytes."""
    if fmt == JSON:
        payload = [dict(zip(columns, row)) for row in rows]
        return json.dumps(payload, indent=2, default=float) + "\n"
    lines = [columns] + [[_cell(value) for value in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, Fraction)):
        return format(float(value), ".9g")
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _write(text: str, path: str | None, stream=None):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        (stream or sys.stdout).write(text)


def _read_digits(path: str, alphabet: str) -> str:
    symbols = "".join(read_input(path, "bad-input-symbol").split())
    if symbols.encode().translate(None, alphabet.encode()):
        bad = set(symbols) - set(alphabet)
        raise InputError(f"{sorted(bad)} not in {alphabet!r}", "bad-input-symbol")
    return symbols


def _count(text: str) -> int:
    """argparse type: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {text!r}")
    return int(text)


def _duration(text: str) -> float:
    """argparse type: a finite positive number (microseconds)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite positive number, got {text!r}")
    return value


INPUT_OPTIONS = ("infile", "config", "ring", "requests", "table")
# parsed options that are not parameters: inputs, output routing, and
# those recorded under their own key
_NOT_PARAMETERS = {*INPUT_OPTIONS, "command", "handler", "out", "manifest", "report", "seed"}


def _maybe_manifest(args):
    """With --manifest, record what ran: every parsed option but the output
    routing, the digest of each input file given, the seed and the version."""
    if not args.manifest:
        return
    options = vars(args)
    digests = {}
    for path in filter(None, (options.get(key) for key in INPUT_OPTIONS)):
        with open(path, "rb") as fh:
            digests[path] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "subcommand": args.command,
        "parameters": {k: v for k, v in options.items() if k not in _NOT_PARAMETERS},
        "inputs": digests,
        "seed": args.seed,
        "artifact_version": __version__,
    }
    _write(json.dumps(manifest, indent=2, sort_keys=True) + "\n", args.manifest)


# --- subcommand handlers -------------------------------------------------
# Each returns its report text and, for a failing verdict, the InputError
# that dispatch reports after writing the text (else None).

def cmd_rates(args) -> tuple[str, InputError | None]:
    levels = list(spm.STS_LEVELS) if args.level is None else [args.level]
    rows = [(f"STS-{e.sts_level}", e.oc, e.stm or "", spm.kbps_to_mbps_str(e.line_rate_kbps),
             spm.kbps_to_mbps_str(e.payload_rate_kbps)) for e in map(spm.sts_rates, levels)]
    return emit_report(rows, ["sts", "oc", "stm", "line_mbps", "payload_mbps"],
                       args.format), None


def cmd_codec(args) -> tuple[str, InputError | None]:
    if args.decode and args.scheme != "4b5b":
        raise InputError(f"{args.scheme} decode", "unsupported")
    if args.scheme == "4b5b" and args.decode:
        bits = _read_digits(args.infile, "01")
        if len(bits) % 5:
            raise InputError(f"{len(bits)} bits not a multiple of 5", "bad-length")
        nibbles = phy_codec.decode_4b5b(re.findall(".{5}", bits))
        text = bytes(nibbles).translate(_HEX_DIGITS).decode()
    elif args.scheme == "4b5b":
        nibbles = _read_digits(args.infile, "0123456789abcdefABCDEF").encode().translate(_HEX_VALUES)
        text = "".join(map(attrgetter("code"), phy_codec.encode_4b5b(nibbles)))
    elif args.scheme == "nrzi":
        bits = bits_from_text(_read_digits(args.infile, "01"))
        signal = phy_codec.nrzi_encode(bits, initial_level=args.initial_level)
        text = bits_to_text(signal.levels)
    else:
        levels = phy_codec.mlt3_encode(bits_from_text(_read_digits(args.infile, "01"))).levels
        text = struct.pack(f"{len(levels)}b", *levels).translate(_MLT3_GLYPHS).decode()
    return text + "\n", None


def cmd_scrambler(args) -> tuple[str, InputError | None]:
    if args.action == "dump":
        return bits_to_text(scrambler.keystream(args.bits)) + "\n", None
    # analyze
    if args.table:
        table = phy_codec.parse_code_table(read_input(args.table, phy_codec.BAD_TABLE))
    else:
        table = phy_codec.default_code_table()
    report = scrambler.longest_valid_match(table)
    rows = [(r.model, r.length_bits, r.offset, r.polarity, r.alignment, r.leading_fragment,
             ".".join(r.symbols), r.trailing_fragment, COMPUTED)
            for r in (report.with_fragments, report.whole_symbol)]
    columns = ["model", "length_bits", "offset", "polarity", "alignment",
               "leading_fragment", "symbols", "trailing_fragment", "provenance"]
    return emit_report(rows, columns, args.format), None


def cmd_sonet_map(args) -> tuple[str, InputError | None]:
    """The recovered bits are the report; the mapping report goes to
    --report, or to stderr."""
    bits = bits_from_text(_read_digits(args.infile, "01"))
    layout = spm.build_spe_layout()
    frames = spm.map_fddi(bits, layout)
    recovered = spm.extract_fddi(frames, layout)
    text = bits_to_text(recovered) + "\n"
    if recovered != bits:
        return text, InputError("extracted bits differ from input", "roundtrip-mismatch")
    rows = (
        ("frames", len(frames), "count", COMPUTED),
        ("capacity_per_frame", layout.capacity_bits, "bits", COMPUTED),
        ("payload_bits", len(bits), "bits", COMPUTED),
        ("max_user_run", max(layout.byte_runs()), "bytes", COMPUTED),
        ("spe_bandwidth_published", spm.spe_bandwidth(), "Mbps", GIVEN),
        ("spe_bandwidth_recomputed", float(spm.spe_bandwidth_recomputed()), "Mbps", COMPUTED),
        ("roundtrip", "ok", "", COMPUTED))
    _write(emit_report(rows, ["metric", "value", "unit", "provenance"], args.format),
           args.report, sys.stderr)
    return text, None


def cmd_simulate(args) -> tuple[str, InputError | None]:
    cfg, load = mac_sim.load_config_file(args.config)
    try:
        m = mac_sim.run_simulation(cfg, load, duration_us=args.duration, seed=args.seed)
    except mac_sim.ConfigViolationsError as exc:  # the report: one row per rule
        rows, error = [("violation", v.rule, v.detail) for v in exc.violations], exc
    else:
        rows, error = [
            ("throughput", m.throughput, "fraction"),
            ("duration", m.duration_us, "us"),
            ("warmup", m.warmup_us, "us"),
            ("token_visits", m.n_token_visits, "count"),
            ("sync_bytes_sent", m.sync_bytes_sent, "bytes"),
            ("async_bytes_sent", m.async_bytes_sent, "bytes"),
            ("sync_bytes_delivered", m.sync_bytes_delivered, "bytes"),
            ("async_bytes_delivered", m.async_bytes_delivered, "bytes"),
            ("sync_frames_in_flight", m.sync_frames_in_flight, "frames"),
            ("async_frames_in_flight", m.async_frames_in_flight, "frames"),
            ("max_sync_gap", m.max_sync_gap_us, "us"),
            ("mean_access_delay", m.mean_access_delay_us, "us"),
            ("max_access_delay", m.max_access_delay_us, "us"),
        ], None
    return emit_report(rows, ["metric", "value", "unit"], args.format), error


def cmd_fddi2_plan(args) -> tuple[str, InputError | None]:
    mode_map = {"i": fddi2.ISOCHRONOUS, "p": fddi2.PACKET}
    modes_str = args.modes.lower().replace(",", "")
    if len(modes_str) != fddi2.WBC_COUNT or set(modes_str) - set("ip"):
        raise InputError(f"need {fddi2.WBC_COUNT} chars of i/p, got {args.modes!r}",
                         "bad-modes")
    modes = [mode_map[c] for c in modes_str]
    allocation = fddi2.allocate(modes, fddi2.load_requests_file(args.requests))
    per_wbc: dict[int, dict[str, int]] = {}
    for channel, slots in allocation.grants:
        for wbc, _offset in slots:
            per_wbc.setdefault(wbc, {}).setdefault(channel, 0)
            per_wbc[wbc][channel] += 1
    rows = []
    for wbc in range(fddi2.WBC_COUNT):
        mode = allocation.wbc_modes[wbc]
        label = wbc + 1  # channels are presented 1..16
        if mode == fddi2.PACKET:
            rows.append((label, "packet", "(pool)", fddi2.WBC_BYTES,
                         fddi2.wbc_bandwidth_kbps()))
            continue
        owned = list(per_wbc.get(wbc, {}).items())
        free = fddi2.WBC_BYTES - sum(count for _, count in owned)
        for channel, count in owned + ([("(free)", free)] if free else []):
            rows.append((label, "isochronous", channel, count,
                         fddi2.bytes_per_cycle_to_kbps(count)))
    return emit_report(rows, ["wbc", "mode", "channel", "bytes", "kbps"],
                       args.format), None


def cmd_plan(args) -> tuple[str, InputError | None]:
    links, stations = link_planner.load_ring_file(args.ring)
    report = link_planner.validate_ring(links, stations)
    rows = []
    for i, rep in enumerate(report.links):
        summary = f"{rep.link.media} {rep.link.length_m:g}m"
        if rep.margin_db is not None:
            summary += f" margin={rep.margin_db:g}dB"
        if rep.verdict == "pass":
            rows.append((i, "-", "pass", summary))
        else:
            for rule in rep.violated_rules:
                name, _, detail = rule.partition(": ")
                rows.append((i, name, "fail", detail or summary))
        for warning in rep.warnings:
            name, _, detail = warning.partition(": ")
            rows.append((i, name, "warn", detail))
    for rule in report.ring_rules:
        name, _, detail = rule.partition(": ")
        rows.append(("ring", name, "fail", detail))
    if not report.ring_rules:
        rows.append(("ring", "-", report.verdict, f"{len(links)} links"))
    failed = InputError("", "ring-verdict-fail") if report.verdict == "fail" else None
    return emit_report(rows, ["link", "rule", "verdict", "detail"], args.format), failed


# --- argument parsing -----------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fddilab argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="fddilab",
        description="FDDI protocol laboratory: MAC simulation, line codes, "
                    "SONET mapping, FDDI-II cycles, link budgets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=[CSV, JSON], default=CSV)
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--manifest", help="write a run manifest to this file")
    # the one source of randomness; subcommands without randomness
    # accept and ignore it so manifests stay uniform
    common.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("rates", parents=[common],
                       help="SONET/SDH signal hierarchy table")
    p.add_argument("--level", type=int, help="single STS level")
    p.set_defaults(handler=cmd_rates)

    p = sub.add_parser("codec", parents=[common], help="4b/5b, NRZI and MLT-3 line codes")
    p.add_argument("scheme", choices=["4b5b", "nrzi", "mlt3"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--decode", action="store_true")
    p.add_argument("--initial-level", choices=["low", "high"], default="low")
    p.set_defaults(handler=cmd_codec)

    p = sub.add_parser("scrambler", parents=[common],
                       help="keystream dump / 4b5b match analysis")
    p.add_argument("action", choices=["dump", "analyze"])
    p.add_argument("--bits", type=_count, default=scrambler.PERIOD)
    p.add_argument("--table", help="alternate 4b/5b code table file")
    p.set_defaults(handler=cmd_scrambler)

    p = sub.add_parser("sonet-map", parents=[common],
                       help="round-trip code bits through SPE frames")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", help="write the mapping report to this file")
    p.set_defaults(handler=cmd_sonet_map)

    p = sub.add_parser("simulate", parents=[common], help="timed-token ring simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--duration", type=_duration, required=True, help="microseconds")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fddi2", parents=[common], help="FDDI-II wideband channel planning")
    p.add_argument("action", choices=["plan"])
    p.add_argument("--modes", required=True,
                   help="16 chars, i=isochronous p=packet (WBC 1..16)")
    p.add_argument("--requests", required=True,
                   help="file of 'channel bytes' lines")
    p.set_defaults(handler=cmd_fddi2_plan)

    p = sub.add_parser("plan", parents=[common], help="validate a mixed-media ring plan")
    p.add_argument("--ring", required=True, help="ring description JSON")
    p.set_defaults(handler=cmd_plan)

    return parser


def dispatch(argv: list[str]) -> int:
    """Run one command and return its exit code. The handler's report goes
    to --out or stdout, then the manifest; a failing verdict, an
    InputError, or a file that cannot be read or written, exits 1 with
    one line on stderr, ``error: <tag>[: <reason>]``."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, error = args.handler(args)
        _write(report, args.out)
        _maybe_manifest(args)
    except InputError as exc:
        error = exc
    except OSError as exc:  # missing, a directory, unreadable or unwritable
        error = InputError(f"{exc.filename}: {exc.strerror}",
                           "missing-file" if isinstance(exc, FileNotFoundError)
                           else "file-error")
    if error is None:
        return 0
    reason = str(error)
    sys.stderr.write(f"error: {error.tag}{': ' + reason if reason else ''}\n")
    return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

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
A call is a fresh process, so a handler imports its own module when it
runs, but for phy_codec and link_planner, which load with cli as their
tables are part of start-up; json loads with the first JSON report or
manifest. A command line is read from one table of subcommands,
COMMANDS: ``_match`` reads a plainly spelled one, and argparse, loaded
only then, everything else, which includes writing help, usage and
usage errors.
"""

from __future__ import annotations

import functools
import math
import os
import stat
import sys
import types
from collections.abc import Callable

from . import InputError, __version__, link_planner, phy_codec, read_input, record, shown
from .phy_codec import bits_to_text

CSV = "csv"
JSON = "json"

GIVEN = "given"       # constant carried from the published figures
COMPUTED = "computed"  # value recomputed by this tool


@functools.cache
def _json_encoder(item_separator: str, sort_keys=False):   # C; json.dumps(indent=) is not
    import json   # on the first JSON report or manifest, not at start-up
    return json.JSONEncoder(separators=(item_separator, ": "), default=float, sort_keys=sort_keys)


@functools.cache
def _csv_template(kinds: tuple) -> str:
    """The % template of a CSV row whose cells have these types."""
    return ",".join("%.0s" if kind is type(None) else "%.9g" if issubclass(kind, float)
                    else "%s" for kind in kinds)


def _csv_quoted(row) -> str:
    """A CSV row with each cell that holds a comma, quote or newline quoted."""
    parts = _csv_template(tuple(map(type, row))).split(",")
    cells = [part % (cell,) for part, cell in zip(parts, row)]
    return ",".join(['"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\n" in c
                     else c for c in cells])


def emit_report(rows, columns: list[str], fmt: str) -> str:
    """Render rows (tuples) of str, int, float, bool or None cells, one per
    column, as CSV or JSON; identical input, identical bytes. JSON is
    json.dumps(indent=2) of a dict per row: one encoding of all cells, split
    at the raw newlines between them (a cell has none), fills a row template.
    CSV is one % template per run of rows with the same cell types."""
    if not rows:
        return "[]\n" if fmt == JSON else ",".join(columns) + "\n"
    if fmt == JSON:
        keys = dict.fromkeys(columns)
        if len(keys) < len(columns):   # a repeated name keeps its first place, its last cell
            rows = [list(dict(zip(columns, row)).values()) for row in rows]
        encode = _json_encoder("\n").encode
        names = encode(list(keys))[1:-1].replace("%", "%%").split("\n")
        template = "  {\n    " + ",\n    ".join([name + ": %s" for name in names]) + "\n  }"
        cells = encode([cell for row in rows for cell in row])[1:-1].split("\n")
        return "[\n" + ",\n".join([template] * len(rows)) % tuple(cells) + "\n]\n"
    lines, kinds = [], None
    for row in rows:
        row_kinds = tuple(map(type, row))
        if row_kinds != kinds:
            kinds, template = row_kinds, _csv_template(row_kinds)
        lines.append(template % row)
    body = "\n".join(lines)
    if ('"' in body or body.count("\n") >= len(rows)
            or body.count(",") > sum(map(len, rows)) - len(rows)):
        body = "\n".join(map(_csv_quoted, rows))
    return ",".join(columns) + "\n" + body + "\n"


def _write(text: str, path: str | None, stream=None):
    """Write text to the file at path as UTF-8, else to stream (stdout).
    A file is rewritten in place, and a regular one that was longer is
    then cut to the bytes written, even after a failed write: on ext4 a
    truncation, on open or by ftruncate, costs 50-100 us, the write of a
    report a few."""
    try:
        if path:
            data = memoryview(text.encode("utf-8"))
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                st = os.fstat(fd)   # ftruncate refuses /dev/null: cut regular files only
                old_size = st.st_size if stat.S_ISREG(st.st_mode) else 0
                written = 0
                try:
                    while written < len(data):
                        written += os.write(fd, data[written:])
                finally:   # no tail of the old file stays
                    if old_size > written:
                        os.ftruncate(fd, written)
            finally:
                os.close(fd)
        else:
            (stream or sys.stdout).write(text)
    except OSError as exc:  # name where the text was going
        exc.filename = exc.filename or path or ("stdout" if stream is None else "stderr")
        raise


def _refuse(need: str, text: str):
    """Raise argparse's refusal of an option value: ``need ..., got 'text'``."""
    import argparse   # only a refusal needs it, and argparse then reads the line
    raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")


def _count(text: str) -> int:
    """argparse type: a non-negative integer."""
    return int(text) if text.isdecimal() else _refuse("a non-negative integer", text)


def _duration(text: str) -> float:
    """argparse type: a finite positive number (microseconds)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    return value if 0 < value < math.inf else _refuse("a finite positive number", text)


INPUT_OPTIONS = ("infile", "config", "ring", "requests", "table")
# parsed options that are not parameters: inputs, output routing, and
# those recorded under their own key
_NOT_PARAMETERS = {*INPUT_OPTIONS, "command", "handler", "out", "manifest", "report", "seed"}


def _sha256(path: str) -> str:
    import hashlib   # only a manifest needs it: not loaded at start-up

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _input_digests(args) -> dict:
    """Each input file given -> its sha256, taken before the run writes
    any output, which may name it; None for one that is no regular file,
    such as a pipe, whose bytes only the run reads. An input that cannot
    be read is left to the manifest."""
    digests = {}
    for path in filter(None, map(vars(args).get, INPUT_OPTIONS)):
        try:
            digests[path] = _sha256(path) if stat.S_ISREG(os.stat(path).st_mode) else None
        except OSError:   # the run or its manifest reports it
            pass
    return digests


def _write_manifest(args, digests: dict):
    """Record what ran: every parsed option but the output routing, the
    digest of each input file, the seed and the version."""
    options = vars(args)
    _write(_manifest_text({
        "subcommand": args.command,
        "parameters": {k: v for k, v in options.items() if k not in _NOT_PARAMETERS},
        "inputs": {p: digests[p] if p in digests else _sha256(p)
                   for p in filter(None, map(options.get, INPUT_OPTIONS))},
        "seed": args.seed,
        "artifact_version": __version__,
    }), args.manifest)


def _manifest_text(manifest: dict) -> str:
    """json.dumps(manifest, indent=2, sort_keys=True) + "\\n", its dicts flat."""
    encode, lines = _json_encoder(",\n    ", True).encode, []
    for key, value in sorted(manifest.items()):
        text = encode(value)
        text = "{\n    " + text[1:-1] + "\n  }" if text[:2] == '{"' else text   # a dict
        lines.append(f"  {encode(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


# --- subcommand handlers -------------------------------------------------
# Each returns its report text and, for a failing verdict, the InputError
# that dispatch reports after writing the text (else None).

def cmd_rates(args) -> tuple[str, InputError | None]:
    from . import spm
    entries = spm.rate_table() if args.level is None else [spm.sts_rates(args.level)]
    rows = [(f"STS-{e.sts_level}", e.oc, e.stm or "", spm.kbps_to_mbps_str(e.line_rate_kbps),
             spm.kbps_to_mbps_str(e.payload_rate_kbps)) for e in entries]
    return emit_report(rows, ["sts", "oc", "stm", "line_mbps", "payload_mbps"],
                       args.format), None


def cmd_codec(args) -> tuple[str, InputError | None]:
    if args.decode and args.scheme != "4b5b":
        raise InputError(f"{args.scheme} decode", "unsupported")
    if args.scheme == "4b5b" and args.decode:
        text = phy_codec.nibbles_to_text(phy_codec.decode_nibbles(phy_codec.read_bits(args.infile)))
    elif args.scheme == "4b5b":
        text = bits_to_text(phy_codec.encode_bits(phy_codec.read_nibbles(args.infile)))
    elif args.scheme == "nrzi":
        levels = phy_codec.nrzi_levels(phy_codec.read_bits(args.infile), args.initial_level)
        text = bits_to_text(levels)
    else:
        text = phy_codec.phases_to_text(phy_codec.mlt3_phases(phy_codec.read_bits(args.infile)))
    return text + "\n", None


def cmd_scrambler(args) -> tuple[str, InputError | None]:
    from . import scrambler
    if args.action == "dump":
        return bits_to_text(scrambler.keystream(args.bits)) + "\n", None
    # analyze
    if args.table:
        table = read_input(args.table, phy_codec.BAD_TABLE, phy_codec.parse_code_table)
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
    from . import spm
    bits = phy_codec.read_bits(args.infile)
    layout = spm.build_spe_layout()
    frames = spm.map_fddi(bits, layout)
    text = bits_to_text(spm.extract_fddi(frames, layout)) + "\n"
    if text[:-1] != bits_to_text(bits):
        return text, InputError("extracted bits differ from input", "roundtrip-mismatch")
    rows = (
        ("frames", len(frames), "count", COMPUTED),
        ("capacity_per_frame", layout.capacity_bits, "bits", COMPUTED),
        ("payload_bits", len(bits), "bits", COMPUTED),
        ("max_user_run", max(layout.user_runs), "bytes", COMPUTED),
        ("spe_bandwidth_published", spm.SPE_PUBLISHED_PAYLOAD_MBPS, "Mbps", GIVEN),
        ("spe_bandwidth_recomputed", spm.SPE_RECOMPUTED_PAYLOAD_MBPS, "Mbps", COMPUTED),
        ("roundtrip", "ok", "", COMPUTED))
    _write(emit_report(rows, ["metric", "value", "unit", "provenance"], args.format),
           args.report, sys.stderr)
    return text, None


def cmd_simulate(args) -> tuple[str, InputError | None]:
    from . import mac_sim
    try:
        cfg, load = mac_sim.load_config_file(args.config)
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
    from . import fddi2
    letters = args.modes.lower().replace(",", "")
    if len(letters) != fddi2.WBC_COUNT or set(letters) - set("ip"):
        raise InputError(f"need {fddi2.WBC_COUNT} chars of i/p, got {shown(args.modes)}",
                         "bad-modes")
    modes = [fddi2.ISOCHRONOUS if c == "i" else fddi2.PACKET for c in letters]
    allocation = fddi2.allocate(modes, fddi2.load_requests_file(args.requests))
    per_wbc: list[dict[str, int]] = [{} for _ in modes]   # channel -> bytes in each WBC
    for channel, runs in allocation.grants:
        for wbc, _first, count in runs:
            per_wbc[wbc][channel] = per_wbc[wbc].get(channel, 0) + count
    rows = []
    for label, (mode, owned) in enumerate(zip(modes, per_wbc), 1):  # WBCs read 1..16
        if mode == fddi2.PACKET:
            rows.append((label, "packet", "(pool)", fddi2.WBC_BYTES, fddi2.wbc_bandwidth_kbps()))
            continue
        free = fddi2.WBC_BYTES - sum(owned.values())
        rows += [(label, "isochronous", channel, n, float(fddi2.bytes_per_cycle_to_kbps(n)))
                 for channel, n in [*owned.items(), *([("(free)", free)] if free else [])]]
    return emit_report(rows, ["wbc", "mode", "channel", "bytes", "kbps"], args.format), None


def cmd_plan(args) -> tuple[str, InputError | None]:
    links, stations = link_planner.load_ring_file(args.ring)
    report = link_planner.validate_ring(links, stations)
    rows = []
    for i, (link, _, _, margin, _, rules, warnings) in enumerate(report.links):
        if rules:
            rows += [(i, rule, "fail", detail) for rule, detail in rules]
        else:
            tail = "" if margin is None else f" margin={margin:g}dB"
            rows.append((i, "-", "pass", f"{link.media} {link.length_m:g}m{tail}"))
        if warnings:
            rows += [(i, rule, "warn", detail) for rule, detail in warnings]
    rows += [("ring", rule, "fail", detail) for rule, detail in report.ring_rules]
    if not report.ring_rules:
        rows.append(("ring", "-", report.verdict, f"{len(links)} links"))
    failed = InputError("", "ring-verdict-fail") if report.verdict == "fail" else None
    return emit_report(rows, ["link", "rule", "verdict", "detail"], args.format), failed


# --- command lines --------------------------------------------------------

@record
class _Option:
    """One option of a subcommand. ``kind`` is str, a tuple of choices, int,
    _count, _duration or bool (a flag, False unless given)."""

    name: str
    dest: str
    kind: object = str
    default: object = None
    required: bool = False
    help: str | None = None


@record
class _Command:
    handler: Callable
    help: str
    positionals: tuple = ()   # (dest, choices) in order
    options: tuple = ()       # _Option each, after _COMMON's


_COMMON = (
    _Option("--format", "format", (CSV, JSON), CSV),
    _Option("--out", "out", help="output file (default stdout)"),
    _Option("--manifest", "manifest", help="write a run manifest to this file"),
    # the one source of randomness; subcommands without randomness
    # accept and ignore it so manifests stay uniform
    _Option("--seed", "seed", int, 0),
)

# Every subcommand, declared once: build_parser and _match both read it.
COMMANDS = {
    "rates": _Command(cmd_rates, "SONET/SDH signal hierarchy table", (), (
        _Option("--level", "level", int, help="single STS level"),)),
    "codec": _Command(cmd_codec, "4b/5b, NRZI and MLT-3 line codes",
                      (("scheme", ("4b5b", "nrzi", "mlt3")),), (
        _Option("--in", "infile", required=True),
        _Option("--decode", "decode", bool),
        _Option("--initial-level", "initial_level", ("low", "high"), "low"))),
    "scrambler": _Command(cmd_scrambler, "keystream dump / 4b5b match analysis",
                          (("action", ("dump", "analyze")),), (
        _Option("--bits", "bits", _count, 127),   # scrambler.PERIOD, held by a test
        _Option("--table", "table", help="alternate 4b/5b code table file"))),
    "sonet-map": _Command(cmd_sonet_map, "round-trip code bits through SPE frames", (), (
        _Option("--in", "infile", required=True),
        _Option("--report", "report", help="write the mapping report to this file"))),
    "simulate": _Command(cmd_simulate, "timed-token ring simulation", (), (
        _Option("--config", "config", required=True),
        _Option("--duration", "duration", _duration, required=True, help="microseconds"))),
    "fddi2": _Command(cmd_fddi2_plan, "FDDI-II wideband channel planning",
                      (("action", ("plan",)),), (
        _Option("--modes", "modes", required=True,
                help="16 chars, i=isochronous p=packet (WBC 1..16)"),
        _Option("--requests", "requests", required=True,
                help="file of 'channel bytes' lines"))),
    "plan": _Command(cmd_plan, "validate a mixed-media ring plan", (), (
        _Option("--ring", "ring", required=True, help="ring description JSON"),)),
}


@functools.cache
def build_parser():
    """The argparse parser of COMMANDS, built on the first call and then
    reused. It reads the command lines that _match leaves, and writes
    help, usage and usage errors."""
    import argparse   # not at start-up: a plainly spelled command line needs none
    parser = argparse.ArgumentParser(
        prog="fddilab",
        description="FDDI protocol laboratory: MAC simulation, line codes, "
                    "SONET mapping, FDDI-II cycles, link budgets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest, choices in command.positionals:
            p.add_argument(dest, choices=choices)
        for o in (*_COMMON, *command.options):
            if o.kind is bool:
                p.add_argument(o.name, dest=o.dest, action="store_true")
            else:
                kind = {"choices": o.kind} if isinstance(o.kind, tuple) else (
                    {} if o.kind is str else {"type": o.kind})
                p.add_argument(o.name, dest=o.dest, default=o.default,
                               required=o.required, help=o.help, **kind)
        p.set_defaults(handler=command.handler)
    return parser


@functools.cache
def _reader(name: str) -> tuple[dict, dict, frozenset]:
    """A subcommand's options by name, its namespace before any is read, and
    the names it requires."""
    command = COMMANDS[name]
    options = {o.name: o for o in (*_COMMON, *command.options)}
    empty = {"command": name, "handler": command.handler,
             **{o.dest: False if o.kind is bool else o.default for o in options.values()}}
    return options, empty, frozenset(o.name for o in options.values() if o.required)


def _value(kind, text: str):
    """The value argparse reads from text for an option of this kind, or
    None where it may read it otherwise or refuse it: the kind's own
    reading, as argparse calls it, of text in ASCII (not ``٣``)."""
    if isinstance(kind, tuple):
        return text if text in kind else None
    try:
        return kind(text) if text.isascii() else None
    except Exception:   # argparse reads it again and words the refusal
        return None


def _match(argv: list[str]):
    """The namespace argparse gives a plainly spelled command line, read
    from COMMANDS: a subcommand, then its positionals and options in any
    order, each option by its exact name at most once with its value as the
    next token, and no value starting with "-". Any other argv gives None,
    and argparse decides: -h, --version, a prefix such as --dur,
    --opt=value, --, a repeat, a value that reads otherwise, an error."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options, empty, required = _reader(argv[0])
    values, seen = dict(empty), set()
    positionals = iter(COMMANDS[argv[0]].positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            dest, choices = next(positionals, (None, ()))
            if token not in choices:
                return None
            values[dest] = token
            continue
        option = options.get(token)
        if option is None or token in seen:
            return None
        seen.add(token)
        if option.kind is bool:
            values[option.dest] = True
            continue
        text = next(tokens, None)
        value = None if text is None or text[:1] == "-" else _value(option.kind, text)
        if value is None:
            return None
        values[option.dest] = value
    if next(positionals, None) is not None or not required <= seen:
        return None
    return types.SimpleNamespace(**values)


def dispatch(argv: list[str]) -> int:
    """Run one command and return its exit code. The handler's report goes
    to --out or stdout, then the manifest; a failing verdict, an
    InputError, or a file that cannot be read or written, exits 1 with
    one line on stderr, ``error: <tag>[: <reason>]``."""
    args = _match(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        digests = _input_digests(args) if args.manifest else None
        report, error = args.handler(args)
        _write(report, args.out)
        if digests is not None:
            _write_manifest(args, digests)
    except InputError as exc:
        error = exc
    except OSError as exc:  # missing, a directory, unreadable or unwritable
        reason = exc.strerror or type(exc).__name__   # the errno text
        error = InputError(reason if exc.filename is None else f"{exc.filename}: {reason}",
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

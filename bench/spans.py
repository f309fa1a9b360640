"""Span tracing of fddilab's layers, installed from the benchmark only.

``Tracer`` replaces each layer's public functions on their module with
a wrapper that records a span: name, start, end, parent span and
request id, plus the work counts readable at that boundary. A call
made from inside the same layer is not a boundary and records nothing,
so a layer's nested helpers neither add spans nor count work twice.
Spans stay in memory until ``write`` is called once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# layer -> public functions wrapped on the module fddilab.<layer>
LAYERS = {
    "cli": ("dispatch",),
    "mac_sim": ("load_config_file", "run_simulation"),
    "phy_codec": ("encode_4b5b", "decode_4b5b", "nrzi_encode", "mlt3_encode"),
    "scrambler": ("scramble", "keystream", "longest_valid_match"),
    "spm": ("build_spe_layout", "map_fddi", "extract_fddi", "frame_bits"),
    "fddi2": ("allocate",),
    "link_planner": ("validate_ring",),
}


def _sim_counts(bound: dict[str, Any], result) -> dict[str, int]:
    return {"mac_sim.token_visits": result.n_token_visits,
            "mac_sim.bytes_sent": result.sync_bytes_sent + result.async_bytes_sent,
            "mac_sim.probes_requested": bound["load"].probe_count,
            "mac_sim.probes_measured": len(result.probe_delays_us)}


# span name -> work counts from (bound arguments, result)
COUNTERS: dict[str, Callable[[dict[str, Any], Any], dict[str, int]]] = {
    "cli.dispatch": lambda a, r: {"cli.requests": 1},
    "mac_sim.run_simulation": _sim_counts,
    "phy_codec.encode_4b5b": lambda a, r: {"phy_codec.bits": 5 * len(r)},
    "phy_codec.decode_4b5b": lambda a, r: {"phy_codec.bits": 5 * len(r)},
    "phy_codec.nrzi_encode": lambda a, r: {"phy_codec.bits": len(r.levels)},
    "phy_codec.mlt3_encode": lambda a, r: {"phy_codec.bits": len(r.levels)},
    "scrambler.scramble": lambda a, r: {"scrambler.bits": len(r)},
    "scrambler.keystream": lambda a, r: {"scrambler.bits": len(r)},
    "spm.map_fddi": lambda a, r: {"spm.frames": len(r),
                                  "spm.bits": sum(f.user_bits_filled for f in r)},
    "spm.extract_fddi": lambda a, r: {"spm.bits": len(r)},
    "spm.frame_bits": lambda a, r: {"spm.bits": len(r)},
    "link_planner.validate_ring": lambda a, r: {"link_planner.links": len(r.links)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    counts: dict[str, int] | None = None


class Tracer:
    """Context manager: wraps the layers on enter, restores them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._open: list[int] = []          # indices of spans not yet ended
        self._layers: list[str] = []        # their layers, for the boundary test
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"fddilab.{layer}")
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(layer, name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        counter = COUNTERS.get(qual)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._layers and self._layers[-1] == layer:
                return fn(*args, **kwargs)
            span = Span(qual, 0.0, 0.0, self._open[-1] if self._open else None,
                        self.request)
            self._open.append(len(self.spans))
            self._layers.append(layer)
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
                self._layers.pop()
            if counter:
                span.counts = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: Path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, self_s) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, "self_s": self_s,
                                     "counts": s.counts}) + "\n")

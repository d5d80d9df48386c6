"""Per-layer meters the traced runs install around public functions.

A :class:`Meter` wraps a function so that each call adds, under the
layer's observe phase name, one of three figures:

* ``time``: busy seconds (``perf_counter``);
* ``calls``: Python function calls made inside it (a ``cProfile``
  profiler enabled for the call only);
* ``memory``: the call's tracemalloc peak above the memory traced when
  it started (the largest over all calls).

The layers wrapped on one path never nest, so one profiler or one
tracemalloc peak at a time is enough.  Nothing here runs in a timed
pass.
"""

from __future__ import annotations

import cProfile
import pstats
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict


class Meter:
    def __init__(self, mode: str):
        if mode not in ("time", "calls", "memory"):
            raise ValueError(f"unknown meter mode {mode!r}")
        self.mode = mode
        self.totals: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def measure(self, name: str, fn: Callable, *args, **kwargs):
        self.counts[name] += 1
        if self.mode == "time":
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals[name] += time.perf_counter() - start
        if self.mode == "calls":
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profiler.disable()
                self.totals[name] += pstats.Stats(profiler).total_calls
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            self.totals[name] = max(self.totals[name], peak)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.measure(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_iterator(self, name: str, fn: Callable) -> Callable:
        """Wrap a function returning an iterator: every ``next`` is
        measured under ``name``."""
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                try:
                    yield self.measure(name, next, iterator)
                except StopIteration:
                    return
        return wrapper


def install_pack_layers(meter: Meter, streams: Dict[str, int]) -> None:
    """Meter the pack and unpack layers below ``repro.pack``.

    ``streams`` receives ``pack.stream_bytes`` (raw stream bytes before
    zlib) and the spool's spill counts at each serialize.
    """
    import repro.pack as pack
    from repro.coding.streams import StreamSet
    from repro.pack import codec_core, decompressor
    from repro.pack.spool import SpoolStreamSet

    pack.build_archive = meter.wrap("ir.build", pack.build_archive)
    codec_core.count_references = meter.wrap(
        "pack.count", codec_core.count_references)
    codec_core.encode_archive = meter.wrap(
        "pack.encode", codec_core.encode_archive)
    codec_core.decode_archive = meter.wrap(
        "pack.decode", codec_core.decode_archive)
    codec_core.iter_decode_archive = meter.wrap_iterator(
        "pack.decode", codec_core.iter_decode_archive)
    decompressor.StreamReader = meter.wrap(
        "pack.inflate", decompressor.StreamReader)
    decompressor.reconstruct_class = meter.wrap(
        "ir.reconstruct", decompressor.reconstruct_class)

    def record(stream_set) -> None:
        streams["pack.stream_bytes"] = sum(stream_set.raw_sizes().values())
        if isinstance(stream_set, SpoolStreamSet):
            stats = stream_set.spool_stats()
            streams["spool.spilled_bytes"] = stats["spilled_bytes"]
            streams["spool.spilled_streams"] = stats["spilled_streams"]

    serialize = StreamSet.serialize
    serialize_to = SpoolStreamSet.serialize_to

    def metered_serialize(self, *args, **kwargs):
        record(self)
        return meter.measure("pack.serialize", serialize, self,
                             *args, **kwargs)

    def metered_serialize_to(self, *args, **kwargs):
        record(self)
        return meter.measure("pack.serialize", serialize_to, self,
                             *args, **kwargs)

    StreamSet.serialize = metered_serialize
    SpoolStreamSet.serialize_to = metered_serialize_to


def install_serve_layers(meter: Meter) -> None:
    """Meter the service and delta layers the gateway process runs."""
    import repro.delta as delta
    from repro.gateway import http as gateway_http
    from repro.service import scheduler

    gateway_http.load_request_classes = meter.wrap(
        "service.load", gateway_http.load_request_classes)
    gateway_http.cache_key = scheduler.cache_key = meter.wrap(
        "service.key", gateway_http.cache_key)
    scheduler.BatchEngine.execute = meter.wrap(
        "service.execute", scheduler.BatchEngine.execute)
    delta.diff_packed = meter.wrap("delta.diff", delta.diff_packed)

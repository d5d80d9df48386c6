"""One pass of an offline workload, in a process of its own.

``python3 perfbench/offline.py <pass> <workload> <jar> <outdir>
[--seconds S | --rounds N]`` reads the input jar's bytes, runs whole
rounds of pack (jar bytes -> packed bytes) then unpack (packed bytes
-> jar bytes), and prints one JSON line.  Passes:

* ``timed``: no tracing; per-round pack and unpack seconds.  The last
  round's packed bytes and output jar are written to ``outdir`` for
  the checks, which run later in another process;
* ``traced``: the same rounds with every layer under a time meter;
* ``calls``: one round, layers under a cProfile call counter;
* ``memory``: one round, layers under a tracemalloc peak meter;
* ``peak``: one round; the tracemalloc peak of the whole pack and of
  the whole unpack;
* ``bodies``: the serving client's unpack.  ``<jar>`` is then a file
  of packed bodies, each behind a 4-byte length; every body is unpacked
  to a jar in ``--rounds`` passes, and the result is the classes and
  the sum of each body's median seconds.

Each round drops the previous round's outputs first, and the process
holds its input only as bytes, so the cyclic collector has nothing of
the benchmark's to rescan.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Meter, install_pack_layers  # noqa: E402

#: budget_stream's spool budget: well below its raw stream bytes
#: (about 90 KB at 120 classes).
MEMORY_BUDGET = 16 * 1024

PATHS = {
    "pack": ("jar.read", "classfile.parse", "ir.build", "pack.count",
             "pack.encode", "pack.serialize"),
    "unpack": ("pack.inflate", "pack.decode", "ir.reconstruct",
               "classfile.write", "jar.write"),
}


class Pipeline:
    """The workload's pack and unpack operations, optionally metered."""

    def __init__(self, workload: str, outdir: Path, meter: Meter = None):
        import repro.pack as pack
        from repro.classfile.classfile import parse_class, write_class
        from repro.jar import make_jar, read_jar

        self.workload = workload
        self.spool_path = outdir / "packed.bin"
        self.pack = pack
        self.read_jar, self.parse_class = read_jar, parse_class
        self.write_class, self.make_jar = write_class, make_jar
        if meter is not None:
            self.read_jar = meter.wrap("jar.read", read_jar)
            self.parse_class = meter.wrap("classfile.parse", parse_class)
            self.write_class = meter.wrap("classfile.write", write_class)
            self.make_jar = meter.wrap("jar.write", make_jar)

    def pack_op(self, jar: bytes) -> bytes:
        classes = [self.parse_class(data)
                   for name, data in self.read_jar(jar)
                   if name.endswith(".class")]
        if self.workload == "bulk_roundtrip":
            return self.pack.pack_archive(classes)
        options = self.pack.PackOptions(memory_budget=MEMORY_BUDGET)
        with open(self.spool_path, "wb") as out:
            self.pack.pack_archive_to(classes, out, options)
        return self.spool_path.read_bytes()

    def unpack_op(self, packed: bytes) -> bytes:
        if self.workload == "bulk_roundtrip":
            classes = self.pack.unpack_archive(packed)
        else:
            classes = self.pack.iter_unpack_archive(packed)
        # Class by class: only the written bytes outlive an iteration.
        entries = [(classfile.name + ".class", self.write_class(classfile))
                   for classfile in classes]
        return self.make_jar(entries)


def _rounds(pipeline: Pipeline, jar: bytes, seconds: float, rounds: int):
    """Run whole rounds; returns (pack seconds, unpack seconds, last
    packed bytes, last output jar)."""
    pack_s, unpack_s = [], []
    packed = out_jar = None
    deadline = time.perf_counter() + seconds
    while True:
        packed = out_jar = None
        start = time.perf_counter()
        packed = pipeline.pack_op(jar)
        middle = time.perf_counter()
        out_jar = pipeline.unpack_op(packed)
        end = time.perf_counter()
        pack_s.append(middle - start)
        unpack_s.append(end - middle)
        if len(pack_s) >= rounds and end >= deadline:
            return pack_s, unpack_s, packed, out_jar


def _unpack_bodies(data: bytes, passes: int) -> dict:
    import statistics
    import struct

    bodies, pos = [], 0
    while pos < len(data):
        (size,) = struct.unpack_from(">I", data, pos)
        bodies.append(data[pos + 4:pos + 4 + size])
        pos += 4 + size
    pipeline = Pipeline("bulk_roundtrip", Path("."))
    times = [[] for _ in bodies]
    classes = 0
    for _ in range(passes):
        classes = 0
        for index, body in enumerate(bodies):
            start = time.perf_counter()
            out_jar = pipeline.unpack_op(body)
            times[index].append(time.perf_counter() - start)
            classes += sum(1 for _ in pipeline.read_jar(out_jar))
    return {"classes": classes,
            "seconds": sum(statistics.median(t) for t in times)}


def _peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("timed", "traced", "calls",
                                         "memory", "peak", "bodies"))
    parser.add_argument("workload")
    parser.add_argument("jar", type=Path)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    jar = args.jar.read_bytes()
    args.outdir.mkdir(parents=True, exist_ok=True)
    doc = {"jar_bytes": len(jar)}

    if args.mode == "bodies":
        print(json.dumps(_unpack_bodies(jar, args.rounds)))
        return 0

    if args.mode == "peak":
        pipeline = Pipeline(args.workload, args.outdir)
        packed, doc["pack_peak_bytes"] = _peak(pipeline.pack_op, jar)
        _, doc["unpack_peak_bytes"] = _peak(pipeline.unpack_op, packed)
        print(json.dumps(doc))
        return 0

    meter, streams = None, {}
    if args.mode != "timed":
        meter = Meter({"traced": "time", "calls": "calls",
                       "memory": "memory"}[args.mode])
        install_pack_layers(meter, streams)
    pipeline = Pipeline(args.workload, args.outdir, meter)
    if args.mode == "memory":
        tracemalloc.start()
    pack_s, unpack_s, packed, out_jar = _rounds(
        pipeline, jar, args.seconds, args.rounds)
    if args.mode == "memory":
        tracemalloc.stop()
    doc.update(pack_s=pack_s, unpack_s=unpack_s, packed_bytes=len(packed))
    if meter is not None:
        doc["layers"] = dict(meter.totals)
        doc["streams"] = streams
    if args.mode == "timed":
        (args.outdir / "packed.bin").write_bytes(packed)
        (args.outdir / "out.jar").write_bytes(out_jar)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

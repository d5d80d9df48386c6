"""The benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): ``bulk_roundtrip``, ``budget_stream`` and
``serve_releases``.  Inputs are generated from ``--seed`` in a process
of their own before anything is timed.  With ``--trace 0`` the run
measures for ``--seconds`` with no tracing; with ``--trace 1`` it
meters every layer instead (see ``layers.py``).  Outputs are checked
after the measured region; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--corrupt WHAT`` alters one output before the checks, to show that
they catch it (the run must then report ``"correct": false``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import (  # noqa: E402
    CACHE,
    SRC,
    metric,
    percentile,
    run_child,
    run_import,
)

WORKLOADS = ("bulk_roundtrip", "budget_stream", "serve_releases")
CORRUPTIONS = {
    "bulk_roundtrip": ("packed", "class", "behaviour"),
    "budget_stream": ("packed", "class", "behaviour"),
    "serve_releases": ("cold", "delta", "fetch", "etag"),
}

#: Fresh interpreters timed for an offline workload's set-up.
IMPORT_SAMPLES = 9
#: Static methods whose behaviour is compared on repro.jvm.
JVM_SAMPLE = 8
#: Rounds of the traced offline passes (the cProfile and tracemalloc
#: passes run one).
TRACE_ROUNDS = 2
#: Release cycles of the traced serving loop (three rounds of apps).
TRACE_CYCLES = 33
#: Updates served as deltas whose patch is checked, per run.
PATCH_SAMPLE = 16
#: Timed passes, in a fresh process, of the serving client's unpack
#: over all cold bodies.
UNPACK_PASSES = 3

MB = 1e6

#: Every per-layer metric, in BENCHMARK.json's order.  A traced run
#: prints them all; a layer its workload does not drive reads 0.
PER_LAYER = (
    # pack path
    "jar.read_s", "classfile.parse_s", "ir.build_s", "ir.build_calls",
    "ir.build_peak_mb", "pack.count_s", "pack.count_calls",
    "pack.encode_s", "pack.encode_calls", "pack.serialize_s",
    "pack.serialize_peak_mb", "pack.stream_bytes", "spool.spilled_bytes",
    "spool.spilled_streams", "pack.wall_s", "pack.other_s",
    "pack.trace_overhead",
    # unpack path
    "pack.inflate_s", "pack.decode_s", "pack.decode_calls",
    "pack.decode_peak_mb", "ir.reconstruct_s", "ir.reconstruct_calls",
    "ir.reconstruct_peak_mb", "classfile.write_s", "jar.write_s",
    "unpack.wall_s", "unpack.other_s", "unpack.trace_overhead",
    # serving path
    "service.load_s", "service.key_s", "service.execute_s",
    "service.attempts", "service.retries", "service.cache_hits",
    "service.cache_misses", "service.cache_hit_ratio",
    "service.evictions", "admission.rejected", "delta.diff_s",
    "delta.diffs", "delta.cache_hits", "delta.ratio",
    "gateway.pack.server_ms", "gateway.pack.wire_ms",
    "gateway.delta.server_ms", "gateway.delta.wire_ms",
    "gateway.pack_get.server_ms", "gateway.pack_get.wire_ms",
    "serve.cycle_s", "serve.trace_overhead",
)


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"),
                         ("_bytes", "bytes"), ("_ratio", "ratio"),
                         ("overhead", "ratio"), (".ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def log(line: str) -> None:
    print(line, flush=True)


def report_ops(ops) -> None:
    for name, (attempted, failed) in ops.items():
        log(f"ops {name}: attempted={attempted} failed={failed}")


def report_checks(checks) -> bool:
    for name, problems in checks.items():
        log(f"check {name}: " + ("ok" if not problems else
                                 "FAILED " + ", ".join(problems[:5])))
    return not any(checks.values())


# -- offline workloads ---------------------------------------------------

def offline_checks(workload: str, seed: int, jar: bytes, outdir: Path,
                   corrupt: str):
    """Compare the last timed round's outputs with the input."""
    from repro.classfile.classfile import parse_class, write_class
    from repro.pack import pack_archive
    from view import behaviour_mismatches, jar_classes, jar_views, \
        sample_methods, view_mismatches

    packed = (outdir / "packed.bin").read_bytes()
    out_jar = (outdir / "out.jar").read_bytes()
    if corrupt == "packed":
        packed = packed[:-8] + bytes([packed[-8] ^ 0x01]) + packed[-7:]
    elif corrupt == "class":
        out_jar = _corrupt_class(out_jar)

    inputs = jar_classes(jar)
    outputs = {c.name: c for c in jar_classes(out_jar)}
    targets = sample_methods(inputs, seed, JVM_SAMPLE)
    if corrupt == "behaviour":
        _make_throw(outputs[targets[0][0]], *targets[0][1:])
    in_order = [outputs[c.name] for c in inputs if c.name in outputs]
    checks = {"views": view_mismatches(jar_views(jar), jar_views(out_jar))}
    repacked = pack_archive([parse_class(write_class(c)) for c in in_order])
    checks["repack"] = [] if repacked == packed else \
        ["re-packing the unpacked classes gave other bytes"]
    if workload == "budget_stream":
        checks["spill_identity"] = [] if pack_archive(inputs) == packed \
            else ["budgeted bytes differ from in-memory pack_archive"]
    checks["jvm"] = behaviour_mismatches(
        inputs, list(outputs.values()), targets)
    return checks


def _corrupt_class(jar: bytes) -> bytes:
    """Change one integer or string constant of the first class that
    has one."""
    from repro.classfile import constant_pool as cp
    from repro.classfile.classfile import parse_class, write_class
    from repro.jar import make_jar, read_jar

    entries = read_jar(jar)
    for position, (name, data) in enumerate(entries):
        classfile = parse_class(data)
        slots = classfile.pool.slots()
        for index, entry in enumerate(slots):
            if isinstance(entry, cp.IntegerConst):
                slots[index] = cp.IntegerConst(entry.value ^ 1)
            elif isinstance(entry, cp.StringConst):
                slots[index] = cp.StringConst(len(slots))
                slots.append(cp.Utf8("corrupted"))
            else:
                continue
            pool = cp.ConstantPool()
            for kept in slots[1:]:
                pool.append_raw(kept)
            classfile.pool = pool
            entries[position] = (name, write_class(classfile))
            return make_jar(entries)
    raise ValueError("no class has an integer or string constant")


def _make_throw(classfile, method: str, descriptor: str) -> None:
    """Replace one method's code with ``aconst_null; athrow``."""
    for member in classfile.methods:
        if (classfile.member_name(member),
                classfile.member_descriptor(member)) == (method, descriptor):
            code = member.code()
            code.code, code.exception_table = bytes([0x01, 0xBF]), []
            code.max_stack = max(code.max_stack, 1)


def offline_child(mode, workload, jar_path, outdir, hash_seed=None,
                  **limits):
    args = [str(BENCH / "offline.py"), mode, workload, str(jar_path),
            str(outdir)]
    for key, value in limits.items():
        args += [f"--{key}", str(value)]
    return run_child(args, hash_seed=hash_seed)


def run_offline(workload, seed, seconds, trace, corrupt, jar_path, outdir):
    jar = jar_path.read_bytes()
    classes = sum(1 for name in _jar_names(jar) if name.endswith(".class"))
    metrics = {}
    if not trace:
        setup = [run_import("repro.pack") for _ in range(IMPORT_SAMPLES)]
        timed = offline_child("timed", workload, jar_path, outdir,
                              seconds=seconds)
        peak = offline_child("peak", workload, jar_path, outdir,
                             hash_seed=0)
        rounds = len(timed["pack_s"])
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "pack_classes_per_s": metric(
                classes / statistics.median(timed["pack_s"]), "classes/s"),
            "unpack_classes_per_s": metric(
                classes / statistics.median(timed["unpack_s"]),
                "classes/s"),
            "packed_ratio": metric(timed["packed_bytes"] / len(jar),
                                   "ratio"),
            "pack_peak_mb": metric(peak["pack_peak_bytes"] / MB, "MB"),
            "unpack_peak_mb": metric(peak["unpack_peak_bytes"] / MB, "MB"),
            "ops_per_s": metric(
                2 * rounds / (sum(timed["pack_s"]) + sum(timed["unpack_s"])),
                "1/s"),
        }
    else:
        timed = offline_child("timed", workload, jar_path, outdir,
                              rounds=TRACE_ROUNDS)
        traced = offline_child("traced", workload, jar_path, outdir,
                               rounds=TRACE_ROUNDS)
        calls = offline_child("calls", workload, jar_path, outdir,
                              hash_seed=0)
        memory = offline_child("memory", workload, jar_path, outdir,
                               hash_seed=0)
        rounds = TRACE_ROUNDS
        metrics = offline_layers(timed, traced, calls, memory)
    log(f"workload {workload}: {classes} classes, {len(jar)} jar bytes, "
        f"{rounds} rounds")
    ops = {"pack": (rounds, 0), "unpack": (rounds, 0)}
    report_ops(ops)
    checks = offline_checks(workload, seed, jar, outdir, corrupt)
    return metrics, ops, report_checks(checks)


def _jar_names(jar: bytes):
    from repro.jar import read_jar

    return [name for name, _ in read_jar(jar)]


def offline_layers(timed, traced, calls, memory):
    from offline import PATHS

    rounds = len(traced["pack_s"])
    layers = traced["layers"]
    out = {}
    for path, names in PATHS.items():
        wall = sum(traced[f"{path}_s"]) / rounds
        for name in names:
            out[f"{name}_s"] = layers.get(name, 0.0) / rounds
        out[f"{path}.wall_s"] = wall
        out[f"{path}.other_s"] = wall - sum(out[f"{name}_s"]
                                            for name in names)
        out[f"{path}.trace_overhead"] = \
            wall / statistics.mean(timed[f"{path}_s"]) - 1
    for name in ("ir.build", "pack.count", "pack.encode", "pack.decode",
                 "ir.reconstruct"):
        out[f"{name}_calls"] = calls["layers"].get(name, 0)
    for name in ("ir.build", "pack.serialize", "pack.decode",
                 "ir.reconstruct"):
        out[f"{name}_peak_mb"] = memory["layers"].get(name, 0) / MB
    out.update(traced["streams"])
    return out


# -- serve_releases --------------------------------------------------------

def run_serve(seed, seconds, trace, corrupt, chain_path, outdir):
    import serve
    from corpus import read_chain

    chain = serve.Chain(read_chain(chain_path))
    if trace:
        return trace_serve(seed, chain, corrupt)
    setup, server = [], None
    for _ in range(serve.SETUP_LAUNCHES):
        if server is not None:
            server.stop()
        server, took = serve.launch(chain.warmup)
        setup.append(took)
    try:
        run = serve.drive(server, chain, serve.prime(server, chain),
                          seconds=seconds)
    finally:
        server.stop()
    records = run["records"]
    cold = [r for r in records if serve.request_ok("cold", r)]
    bodies = outdir / "bodies.bin"
    bodies.write_bytes(b"".join(
        len(r["cold"]["body"]).to_bytes(4, "big") + r["cold"]["body"]
        for r in cold))
    client = offline_child("bodies", "bulk_roundtrip", bodies, outdir,
                           rounds=UNPACK_PASSES)
    ops, correct = serve_report(run, seed, corrupt)
    largest = max(chain.bases, key=lambda base: len(_jar_names(base[1])))
    first = next(jar for app, jar in chain.releases if app == largest[0])
    (outdir / "largest.jar").write_bytes(first)
    peak = offline_child("peak", "bulk_roundtrip", outdir / "largest.jar",
                         outdir, hash_seed=0)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "pack_classes_per_s": metric(
            sum(len(_jar_names(r["jar"])) for r in cold)
            / sum(r["cold"]["ms"] / 1000.0 for r in cold), "classes/s"),
        "unpack_classes_per_s": metric(
            client["classes"] / client["seconds"], "classes/s"),
        "packed_ratio": metric(
            sum(len(r["cold"]["body"]) for r in cold)
            / sum(len(r["jar"]) for r in cold), "ratio"),
        "pack_peak_mb": metric(peak["pack_peak_bytes"] / MB, "MB"),
        "unpack_peak_mb": metric(peak["unpack_peak_bytes"] / MB, "MB"),
        "ops_per_s": metric(
            sum(a - f for a, f in ops.values()) / run["wall"], "1/s"),
    }
    return metrics, ops, correct


def serve_report(run, seed, corrupt):
    """Print per-kind counts and latencies, run the checks; returns
    ``(ops, correct)``."""
    import serve

    records = run["records"]
    for error in run["errors"]:
        log(f"load error: {error}")
    ops = {kind: (len(records), sum(not serve.request_ok(kind, r)
                                    for r in records))
           for kind in serve.KINDS}
    for kind in serve.KINDS:
        samples = [r[kind]["ms"] for r in records if kind in r]
        if samples:
            log(f"latency {kind}: n={len(samples)} "
                f"p50={statistics.median(samples):.2f}ms "
                f"p90={percentile(samples, 0.9):.2f}ms")
    report_ops(ops)
    updated = [r for r in records if serve.request_ok("update", r)]
    if updated:
        log("delta ratio: {:.4f} (update body bytes / full pack bytes)"
            .format(sum(len(r["update"]["body"]) for r in updated)
                    / sum(len(r["cold"]["body"]) for r in updated)))
    checks = serve_checks(records, seed, corrupt)
    return ops, report_checks(checks) and not run["errors"]


def serve_checks(records, seed: int, corrupt: str):
    """Check every served body against the request jars."""
    import random

    from repro.classfile.classfile import write_class
    from repro.delta import patch_packed
    from repro.jar import make_jar
    from repro.pack import unpack_archive
    from view import jar_views, view_mismatches

    deltas = [i for i, r in enumerate(records)
              if r.get("update", {}).get("served") == "delta"]
    patched = set(random.Random(seed).sample(
        deltas, min(PATCH_SAMPLE, len(deltas))))
    if corrupt and records:
        victim = records[min(patched) if patched else 0]
        if corrupt == "cold":
            victim["cold"]["body"] = _flip(victim["cold"]["body"])
        elif corrupt == "delta":
            victim["update"]["body"] = _flip(victim["update"]["body"])
        elif corrupt == "fetch":
            victim["fetch"]["body"] = _flip(victim["fetch"]["body"])
        elif corrupt == "etag":
            victim["warm"]["sent_etag"] = '"' + "0" * 64 + '"'
    checks = {"cold_unpacks_to_request": [], "update_patches_to_cold": [],
              "not_modified_only_on_match": [], "fetch_equals_cold": []}
    out_jars = []
    for index, record in enumerate(records):
        try:
            classes = unpack_archive(record["cold"]["body"])
            out_jars.append(make_jar([(c.name + ".class", write_class(c))
                                      for c in classes]))
        except Exception as exc:  # a corrupt body may not unpack at all
            out_jars.append(None)
            checks["cold_unpacks_to_request"].append(
                f"release {index}: {exc!r}")
    memo = {}
    for index, record in enumerate(records):
        label = f"release {index}"
        body = record["cold"]["body"]
        if out_jars[index] is not None and view_mismatches(
                jar_views(record["jar"], memo),
                jar_views(out_jars[index], memo)):
            checks["cold_unpacks_to_request"].append(label)
        update = record.get("update")
        if update is not None and update["served"] == "full" \
                and update["body"] != body:
            checks["update_patches_to_cold"].append(label)
        if index in patched:
            try:
                target, _ = patch_packed(record["base"]["body"],
                                         update["body"])
            except Exception as exc:
                target = repr(exc)
            if target != body:
                checks["update_patches_to_cold"].append(label)
        key = record["cold"]["key"]
        warm = record.get("warm", {})
        sent = warm.get("sent_etag", f'"{key}"')
        if warm.get("status") == 304 and \
                (sent != f'"{key}"' or warm["etag"] != sent):
            checks["not_modified_only_on_match"].append(label)
        if update is not None and update["status"] == 304:
            checks["not_modified_only_on_match"].append(label + " update")
        if record.get("fetch", {}).get("body") != body:
            checks["fetch_equals_cold"].append(label)
    return checks


def _flip(data: bytes) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]


def trace_serve(seed, chain, corrupt):
    """The same loop for a fixed number of cycles, on a plain server
    (the reference) and then on a metered one; returns the per-layer
    metrics of the metered loop."""
    import serve

    server, _ = serve.launch(chain.warmup)
    try:
        plain = serve.drive(server, chain, serve.prime(server, chain),
                            cycles=TRACE_CYCLES)
    finally:
        server.stop()
    server, _ = serve.launch(chain.warmup, trace=True)
    try:
        held = serve.prime(server, chain)
        stats0, totals0 = serve.stats(server), server.layer_totals()
        run = serve.drive(server, chain, held, cycles=TRACE_CYCLES)
        stats1, totals1 = serve.stats(server), server.layer_totals()
    finally:
        server.stop()
    ops, correct = serve_report(run, seed, corrupt)
    records = run["records"]
    cycles = len(records)

    def busy(name):
        return (totals1["layers"].get(name, 0.0)
                - totals0["layers"].get(name, 0.0)) / cycles

    def delta(*path):
        before, after = stats0, stats1
        for step in path:
            before, after = before.get(step, {}), after.get(step, {})
        return (after or 0) - (before or 0)

    hits = delta("cache", "hits")
    misses = delta("cache", "misses")
    out = {
        "service.load_s": busy("service.load"),
        "service.key_s": busy("service.key"),
        "service.execute_s": busy("service.execute"),
        "delta.diff_s": busy("delta.diff"),
        "delta.diffs": totals1["counts"].get("delta.diff", 0)
        - totals0["counts"].get("delta.diff", 0),
        "service.attempts": delta("counters", "attempts"),
        "service.retries": delta("counters", "retries"),
        "service.cache_hits": hits,
        "service.cache_misses": misses,
        "service.cache_hit_ratio": hits / max(hits + misses, 1),
        "service.evictions": delta("cache", "evictions"),
        "admission.rejected": delta("gateway", "admission", "rejected"),
        "delta.cache_hits": delta("gateway", "counters",
                                  "delta.cache_hits"),
        "delta.ratio": sum(len(r["update"]["body"]) for r in records)
        / sum(len(r["cold"]["body"]) for r in records),
        "serve.cycle_s": run["wall"] / cycles,
        "serve.trace_overhead": run["wall"] / plain["wall"] - 1,
    }
    kinds = {"pack": ("cold", "warm"), "delta": ("update",),
             "pack_get": ("fetch",)}
    for route, route_kinds in kinds.items():
        routes0 = stats0["gateway"]["routes"].get(route, {})
        routes1 = stats1["gateway"]["routes"][route]
        count = routes1["count"] - routes0.get("count", 0)
        server_ms = (routes1["count"] * routes1["mean_ms"]
                     - routes0.get("count", 0) * routes0.get("mean_ms", 0)
                     ) / count
        client_ms = statistics.mean(r[kind]["ms"] for r in records
                                    for kind in route_kinds)
        out[f"gateway.{route}.server_ms"] = server_ms
        out[f"gateway.{route}.wire_ms"] = client_ms - server_ms
    return out, ops, correct


# -- entry point -----------------------------------------------------------

def make_inputs(workload: str, seed: int) -> Path:
    doc = run_child([str(BENCH / "corpus.py"), workload, str(seed)],
                    timeout=900)
    return Path(doc["path"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", default="")
    args = parser.parse_args(argv)
    if args.corrupt and args.corrupt not in CORRUPTIONS[args.workload]:
        parser.error(f"--corrupt for {args.workload} is one of "
                     f"{', '.join(CORRUPTIONS[args.workload])}")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Leave the bytecode cache written, as an installed program has it,
    # before any set-up is timed.
    run_import("repro.cli, repro.gateway, repro.pack")
    inputs = make_inputs(args.workload, args.seed)
    outdir = CACHE / "runs" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_serve if args.workload == "serve_releases" \
            else lambda *a: run_offline(args.workload, *a)
        metrics, ops, correct = runner(args.seed, args.seconds,
                                       bool(args.trace), args.corrupt,
                                       inputs, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if args.trace:
        metrics = {name: metric(metrics.get(name, 0), layer_unit(name))
                   for name in PER_LAYER}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(a for a, _ in ops.values()),
        "failed": sum(f for _, f in ops.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workload inputs, generated apart from every timed process.

Run as ``python3 perfbench/corpus.py <workload> <seed>``.  It writes
the workload's inputs as jar bytes under ``.bench_cache`` (keyed by
the corpus spec and the seed, so a second run with the same seed
reuses them) and prints their paths as one JSON line.

* ``bulk_roundtrip``: one ``const_heavy`` shaped archive;
* ``budget_stream``: one ``string_heavy`` shaped archive;
* ``serve_releases``: the 11 Table 1 suites of at most 20 classes
  (``suite_names(small_only=True)``) as release 0 of each app, then a
  release chain.  The chain visits the apps in rounds, each
  round in a seeded order; each release edits 1-3 classes of the
  app's previous release by pointing one of their string constants at
  new text that names the release.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import CACHE, SRC  # noqa: E402

#: Shaped archives: (shape, target class count).
SHAPES = {
    "bulk_roundtrip": ("const_heavy", 100),
    "budget_stream": ("string_heavy", 120),
}

#: Release-chain length, in rounds over the apps: more releases
#: than a run of ``BENCHMARK.json``'s length consumes.
CHAIN_ROUNDS = 12

#: App index of the warm-up record in a chain file.
WARMUP_APP = 255

#: Classes edited per release.
EDITS_PER_RELEASE = (1, 3)


def _class_jar(classes):
    from repro.classfile.classfile import write_class
    from repro.jar import make_jar

    return make_jar([(name + ".class", write_class(classfile))
                     for name, classfile in classes.items()])


def _spec_digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def shaped_jar(workload: str, seed: int) -> Path:
    from repro.corpus.shapes import shape_spec

    shape, classes = SHAPES[workload]
    spec = shape_spec(shape, classes, seed=seed)
    path = CACHE / "corpus" / f"{shape}-{_spec_digest(spec)}.jar"
    if not path.exists():
        from repro.corpus.suites import generate_from_spec

        _write(path, _class_jar(generate_from_spec(spec)))
    return path


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".part")
    tmp.write_bytes(data)
    tmp.replace(path)


def _string_slots(classfile):
    from repro.classfile import constant_pool as cp

    return [i for i, entry in enumerate(classfile.pool.slots())
            if isinstance(entry, cp.StringConst)]


def _editable(data: bytes) -> bool:
    from repro.classfile.classfile import parse_class

    return bool(_string_slots(parse_class(data)))


def _edit_string(data: bytes, rng: random.Random, tag: str) -> bytes:
    """Point one string constant of a class at new text ending in
    ``tag``; returns the rewritten class bytes."""
    from repro.classfile import constant_pool as cp
    from repro.classfile.classfile import parse_class, write_class

    classfile = parse_class(data)
    slots = classfile.pool.slots()
    index = rng.choice(_string_slots(classfile))
    old = slots[slots[index].utf8_index].value.split("#r")[0]
    slots[index] = cp.StringConst(len(slots))
    slots.append(cp.Utf8(f"{old}#r{tag}"))
    pool = cp.ConstantPool()
    for entry in slots[1:]:
        pool.append_raw(entry)
    classfile.pool = pool
    return write_class(classfile)


def _app_classes(name: str):
    """Release 0 of one app: class name -> class bytes (cached)."""
    from repro.classfile.classfile import write_class
    from repro.corpus.suites import SUITE_SPECS, generate_from_spec

    spec = SUITE_SPECS[name]
    path = CACHE / "apps" / f"{name}-{_spec_digest(spec)}.json"
    if not path.exists():
        classes = generate_from_spec(spec)
        _write(path, json.dumps({
            key: write_class(value).hex()
            for key, value in classes.items()}).encode())
    return {key: bytes.fromhex(value)
            for key, value in json.loads(path.read_text()).items()}


def release_chain(seed: int) -> Path:
    """Write the apps' release 0, the warm-up jar and the seeded chain
    to one file of records ``(app index u8, release u32, jar length
    u32, jar)``."""
    from repro.corpus.suites import suite_names

    names = suite_names(small_only=True)
    path = CACHE / "chains" / (
        f"chain-{_spec_digest(names, CHAIN_ROUNDS, EDITS_PER_RELEASE)}"
        f"-{seed}.bin")
    if path.exists():
        return path
    apps = [_app_classes(name) for name in names]
    editable = [sorted(name for name, data in classes.items()
                       if _editable(data)) for classes in apps]
    out = bytearray()

    def record(app: int, release: int, classes) -> None:
        from repro.jar import make_jar

        jar = make_jar([(name + ".class", data)
                        for name, data in classes.items()])
        out.extend(struct.pack(">BII", app, release, len(jar)))
        out.extend(jar)

    for app, classes in enumerate(apps):
        record(app, 0, classes)
    # The server's warm-up pack: the smallest app, edited so that no
    # release of the chain repeats it.
    smallest = min(range(len(apps)), key=lambda app: len(apps[app]))
    warm = dict(apps[smallest])
    first = editable[smallest][0]
    warm[first] = _edit_string(warm[first], random.Random(0), "warmup")
    record(WARMUP_APP, 0, warm)
    rng = random.Random(seed)
    release = 0
    for _ in range(CHAIN_ROUNDS):
        order = list(range(len(apps)))
        rng.shuffle(order)
        for app in order:
            release += 1
            classes = dict(apps[app])
            candidates = editable[app]
            for name in rng.sample(
                    candidates, min(len(candidates),
                                    rng.randint(*EDITS_PER_RELEASE))):
                classes[name] = _edit_string(classes[name], rng,
                                             str(release))
            apps[app] = classes
            record(app, release, classes)
    _write(path, bytes(out))
    return path


def read_chain(path: Path):
    """``[(app, release, jar bytes)]`` from a chain file."""
    data = path.read_bytes()
    records, pos = [], 0
    while pos < len(data):
        app, release, size = struct.unpack_from(">BII", data, pos)
        pos += 9
        records.append((app, release, data[pos:pos + size]))
        pos += size
    return records


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(SRC))
    if workload == "serve_releases":
        path = release_chain(seed)
    else:
        path = shaped_jar(workload, seed)
    print(json.dumps({"path": str(path)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

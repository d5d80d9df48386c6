"""Shared helpers: checkout paths, child-process launching, statistics.

Every benchmark process runs the program from the checkout's ``src``
directory and keeps its temporary files (the spool's spill files
included) under ``.bench_cache`` in the checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
TMP = CACHE / "tmp"

#: Seconds a child may take before it counts as hung.
CHILD_TIMEOUT = 170


def child_env(hash_seed: Optional[int] = None) -> Dict[str, str]:
    """Environment for a child that imports the program from ``src``.

    ``hash_seed`` pins ``PYTHONHASHSEED`` for the counting passes, so
    call counts and allocation peaks repeat exactly.
    """
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(TMP)
    # Let imports write the bytecode cache, as an installed program has.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(args: Sequence[str], hash_seed: Optional[int] = None,
              timeout: float = CHILD_TIMEOUT) -> dict:
    """Run ``python3 <args>`` to completion; return its last stdout
    line parsed as JSON.  A failing child raises RuntimeError."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(hash_seed),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args)} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_import(modules: str) -> float:
    """Wall seconds from interpreter start until ``modules`` (a
    comma-separated list) are imported, in a fresh interpreter."""
    env = child_env()
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", f"import {modules}"],
                   cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}

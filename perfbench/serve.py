"""The ``serve_releases`` workload: release-chain traffic on the gateway.

The server (``serve_child.py``: ``repro serve --async`` with one pack
worker) runs in its own process.  This process is the only load: two
keep-alive connections in a closed loop.  The *publisher* posts each
new release (``cold``: ``POST /pack``, a cache miss).  The *client*,
once that post has completed, asks for the same release three ways:

* ``update``: ``POST /delta`` advertising, in ``X-Repro-Have`` and
  ``If-None-Match``, the app's previous release (a new delta);
* ``warm``: the release re-posted with its own ETag (a 304);
* ``fetch``: ``GET /pack/<key>`` (a cache-hit download).

The publisher may run one release ahead of the client, so cache
writes (cold) and cache reads (warm, fetch) run side by side.
"""

from __future__ import annotations

import http.client
import json
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, TMP, child_env  # noqa: E402
from corpus import WARMUP_APP  # noqa: E402

KINDS = ("cold", "update", "warm", "fetch")

#: Server launches per run whose set-up time is measured.
SETUP_LAUNCHES = 5


class Server:
    """One ``serve_child.py`` process; ``trace`` meters its layers."""

    def __init__(self, trace: bool):
        env = child_env()
        self.log = open(TMP / f"serve-{id(self)}.log", "w+")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", str(Path(__file__).with_name(
                "serve_child.py")), "1" if trace else "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {self.error()}")
        self.host, port = line.split("http://")[1].split()[0].split(":")
        self.port = int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def layer_totals(self) -> dict:
        """The traced server's layer totals so far."""
        self.proc.send_signal(signal.SIGUSR1)
        return json.loads(self.proc.stdout.readline())

    def error(self) -> str:
        self.log.seek(0)
        return self.log.read()[-2000:]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def request(conn, method: str, path: str, body: Optional[bytes] = None,
            headers: Optional[Dict[str, str]] = None) -> dict:
    """One request; latency runs from send to the last body byte."""
    start = time.perf_counter()
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    data = response.read()
    return {"ms": (time.perf_counter() - start) * 1000.0,
            "status": response.status, "body": data,
            "key": response.getheader("X-Repro-Key"),
            "etag": response.getheader("ETag"),
            "cache": response.getheader("X-Repro-Cache"),
            "served": response.getheader("X-Repro-Served")}


def launch(warmup_jar: bytes, trace: bool = False):
    """Start a server and wait until it has answered ``/healthz`` and
    packed one warm-up jar (its worker pool starts lazily).  Returns
    ``(server, seconds)``."""
    start = time.perf_counter()
    server = Server(trace)
    try:
        conn = server.connect()
        if request(conn, "GET", "/healthz")["status"] != 200:
            raise RuntimeError("healthz failed")
        if request(conn, "POST", "/pack", warmup_jar)["status"] != 200:
            raise RuntimeError(f"warm-up pack failed: {server.error()}")
        conn.close()
    except Exception:
        server.stop()
        raise
    return server, time.perf_counter() - start


class Chain:
    """A chain file's records split into the warm-up jar, each app's
    release 0 and the releases to serve."""

    def __init__(self, records):
        self.warmup = next(jar for app, _, jar in records
                           if app == WARMUP_APP)
        self.bases = [(app, jar) for app, release, jar in records
                      if release == 0 and app != WARMUP_APP]
        self.releases = [(app, jar) for app, release, jar in records
                         if release > 0]


def prime(server: Server, chain: Chain) -> Dict[int, dict]:
    """Post every app's release 0; returns app -> its cold response."""
    conn = server.connect()
    held = {}
    for app, jar in chain.bases:
        held[app] = request(conn, "POST", "/pack", jar)
        held[app]["jar"] = jar
    conn.close()
    return held


def drive(server: Server, chain: Chain, held: Dict[int, dict],
          seconds: float = 0.0, cycles: int = 0) -> dict:
    """The closed loop.  Runs whole release cycles until ``seconds``
    have passed (or exactly ``cycles`` of them); returns the cycle
    records and the wall time."""
    if len(chain.releases) < cycles:
        raise RuntimeError("release chain shorter than the run")
    released = queue.Queue()
    slots = threading.Semaphore(2)
    records: List[dict] = []
    errors: List[str] = []
    start = time.perf_counter()
    deadline = start + seconds

    def publisher():
        conn = server.connect()
        try:
            for index, (app, jar) in enumerate(chain.releases):
                if (cycles and index == cycles) or \
                        (not cycles and time.perf_counter() >= deadline):
                    break
                if not slots.acquire(timeout=60):
                    raise RuntimeError("client stopped taking releases")
                record = {"app": app, "jar": jar,
                          "base": held[app]}
                record["cold"] = request(conn, "POST", "/pack", jar)
                records.append(record)
                held[app] = dict(record["cold"], jar=jar)
                released.put(record)
        except Exception as exc:  # reported as a failed run below
            errors.append(f"publisher: {exc!r}")
        finally:
            released.put(None)
            conn.close()

    def client():
        conn = server.connect()
        try:
            while True:
                record = released.get()
                if record is None:
                    return
                key, base_key = record["cold"]["key"], \
                    record["base"]["key"]
                record["update"] = request(
                    conn, "POST", "/delta", record["jar"],
                    {"X-Repro-Have": base_key or "",
                     "If-None-Match": f'"{base_key}"'})
                record["warm"] = request(
                    conn, "POST", "/pack", record["jar"],
                    {"If-None-Match": f'"{key}"'})
                record["fetch"] = request(conn, "GET", f"/pack/{key}")
                slots.release()
        except Exception as exc:
            errors.append(f"client: {exc!r}")
        finally:
            conn.close()

    threads = [threading.Thread(target=publisher, daemon=True),
               threading.Thread(target=client, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150)
    if any(thread.is_alive() for thread in threads):
        errors.append("load threads did not finish")
    return {"records": records, "wall": time.perf_counter() - start,
            "errors": errors}


def stats(server: Server) -> dict:
    conn = server.connect()
    try:
        return json.loads(request(conn, "GET", "/stats")["body"])
    finally:
        conn.close()


# -- per-request expectations ------------------------------------------

def request_ok(kind: str, record: dict) -> bool:
    """Whether one request got the response its kind calls for."""
    response = record.get(kind)
    if response is None:
        return False
    if kind == "cold":
        return response["status"] == 200 and response["cache"] == "miss" \
            and response["key"] is not None
    if kind == "update":
        return response["status"] == 200 and \
            response["served"] in ("delta", "full")
    if kind == "warm":
        return response["status"] == 304
    return response["status"] == 200

"""``repro serve --async`` with one pack worker, as its own process.

Run as ``python3 -u perfbench/serve_child.py <trace 0|1>``.  With
trace 1 the service and delta layers are metered in this (the
gateway's) process first, and each SIGUSR1 prints their totals so far
as one JSON line.  SIGTERM or SIGINT stops the server.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Meter, install_serve_layers  # noqa: E402

SERVE_ARGS = ["serve", "--async", "--workers", "1", "--port", "0"]


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    from repro.cli import main as repro_main

    if argv and argv[0] == "1":
        meter = Meter("time")
        install_serve_layers(meter)

        def report(signum, frame):
            print(json.dumps({"layers": dict(meter.totals),
                              "counts": dict(meter.counts)}), flush=True)

        signal.signal(signal.SIGUSR1, report)
    signal.signal(signal.SIGTERM, _interrupt)
    return repro_main(SERVE_ARGS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

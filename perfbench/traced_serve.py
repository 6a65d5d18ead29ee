"""``repro serve`` with the benchmark's layer wrappers installed.

Installs the span wrappers, then runs the program's own CLI in this
process, so the traced server is the same server in its own process.
SIGUSR1 switches recording off and on; the spans are written to
``--spans-out`` as JSON when the server exits.

    python3 -m perfbench.traced_serve --spans-out spans.json -- \
        serve --trace t.txt --port 0 --wal wal
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from perfbench.spans import SpanRecorder, install


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.__main__ import main as repro_main

    recorder = SpanRecorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.toggle())
    try:
        return repro_main(cli)
    finally:
        recorder.enabled = False
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())

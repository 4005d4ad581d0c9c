"""In-process replay of one CLI command with spans on, in a fresh child.

    python3 bench/replay.py --name cli_query_s --out replay.json -- query --graph corpus.ttl --cq Q1.1

The child imports simkg, installs the spans of ``tracing.py`` and then
replays the command once through ``simkg.cli.main``, which makes the same
public calls the ``simkg`` process makes.  One fresh process per replay
keeps the heap, and so the garbage collector, as cold as in a CLI child.
Writes the replay time, exit code, per-request metrics and spans as JSON
to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from simkg import cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--name", required=True, help="operation type the request is filed under")
    ap.add_argument("--out", required=True)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_request(args.name)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(command)
        elapsed = time.perf_counter() - start
        tracer.end_request()
    finally:
        tracer.uninstall()
    result = {"replay_s": elapsed, "code": code, "rows": tracer.rows(), "spans": tracer.dump()}
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

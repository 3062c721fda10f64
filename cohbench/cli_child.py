"""Traced CLI child: `python -m povmcoh.cli ARGS` with spans recorded.

    python3 cli_child.py SRC TRACE_PATH ARGS...

Imports povmcoh.cli from SRC, wraps the package in spans, runs `cli.main`
with ARGS (stdout and the exit code are the CLI's own) and writes the span
totals, the import time and its start time on CLOCK_MONOTONIC to TRACE_PATH.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, trace_path, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    t0 = time.monotonic()
    import povmcoh.cli

    import_s = time.monotonic() - t0
    import spans

    tracer = spans.install(povmcoh)
    code = povmcoh.cli.main(args)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"start": START, "import_s": import_s, **tracer.take()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Traced cli_cold op: `import slabdiff` and slabdiff.cli.main with spans.

    python3 -X importtime bench/cli_shim.py SPANS_JSON COMMAND ARGS...

Runs `slabdiff COMMAND ARGS...` as `python -m slabdiff` would, and writes
its start and end times, the spans and the counts it recorded to
SPANS_JSON. The caller turns the time before START into a cli.startup span
and the time after the end into a cli.exit span (interpreter shutdown).
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    with rec.span("cli.import"):
        import slabdiff.cli
    tracing.install(rec)
    try:
        return slabdiff.cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"start": START, "end": time.perf_counter(), "spans": rec.spans,
                       "counts": rec.counts.get(None, {})}, fh)


if __name__ == "__main__":
    sys.exit(main())

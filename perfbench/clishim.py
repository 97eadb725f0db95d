"""Run `ihull.cli` with the layer tracer installed (the traced cli-cold child).

    python3 perfbench/clishim.py TRACE_JSON ARGS...

Imports run untraced; the tracer's aggregates for the command are written to
TRACE_JSON and the exit code is the CLI's.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
from ihull import cli  # noqa: E402


def main(argv) -> int:
    trace = tracing.Tracer()
    tracing.install(trace)
    trace.enabled = True
    code = cli.main(argv[1:])
    trace.enabled = False
    Path(argv[0]).write_text(json.dumps(trace.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

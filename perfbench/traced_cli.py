"""Run one attnpaths CLI command with its modules traced, in this interpreter.

    python3 perfbench/traced_cli.py SPANS.json -- <attnpaths arguments>

Wraps the public functions each module calls (see tracing.WRAPPED), runs
attnpaths.cli.main on the arguments, writes the spans to SPANS.json and exits
with the command's exit code.  Nothing under src/ is edited.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    import attnpaths.cli

    tracer.install()
    try:
        return attnpaths.cli.main(argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One traced CLI call: `python3 perfbench/cli_child.py <ramforge cli args>`.

Runs `ramforge.cli.main` with the benchmark's spans installed.  Stdout and
the exit code are the CLI's own; the spans go to stderr as the last line,
`PERFBENCH-TRACE <json>`.
"""

import json
import sys

from spans import Tracer


def main():
    tracer = Tracer().install()
    from ramforge import cli

    try:
        code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print("PERFBENCH-TRACE " + json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

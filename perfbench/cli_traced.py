"""Traced stand-in for `python -m sosproj.cli`, used by the traced CLI pass.

Times the import of `sosproj.cli` and its `main`, wraps the public names the
CLI and library modules bind, and writes the spans as JSON to the file named
by the PERFBENCH_SPANS environment variable.  Standard output, standard
error and the exit code are the CLI's own.
"""

import importlib
import json
import os
import sys

import tracing


def main() -> int:
    tracer = tracing.Tracer(enabled=True)
    cli = tracer.call("cli.import", importlib.import_module, "sosproj.cli")
    with tracing.wrapped(tracer, tracing.WRAPPED_NAMES + tracing.CLI_WRAPPED_NAMES):
        code = tracer.call("cli.main", cli.main, sys.argv[1:])
    with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Traced launcher for one CLI call of the cli-mix traced pass.

    python3 perfbench/cli_bootstrap.py SPANS_JSON <claguerre arguments...>

Installs the tracer's wrappers, runs ``claguerre.cli.run()`` with the given
arguments as one root span, writes the span totals to SPANS_JSON at exit
and exits with the CLI's own status; stdout is the CLI's, unchanged.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import claguerre.cli as cli

    tracer = Tracer()
    install(tracer, cli_command=argv[0] if argv else None)
    sys.argv = ["claguerre", *argv]
    code = 0
    try:
        tracer.root(cli.run)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Launch ``repro serve`` with the per-layer tracing wrappers installed.

Usage: ``python3 serve_traced.py --dump PATH serve --data-dir DIR ...``
(everything after ``--dump PATH`` is handed to the ``repro`` CLI
unchanged).  On SIGUSR1 the launcher writes its layer totals to PATH as
JSON; the benchmark asks for them before it stops or kills the server,
so a ``kill -9`` loses nothing.
"""

from __future__ import annotations

import signal
import sys

from common import require_source
from layers import LayerTracer, install


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--dump":
        print(__doc__, file=sys.stderr)
        return 2
    path, rest = argv[1], argv[2:]
    require_source()
    from repro import cli

    tracer = LayerTracer()
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda _sig, _frame: tracer.dump(path))
    return cli.main(rest)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

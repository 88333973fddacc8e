"""A traced minseq process: python3 cli_child.py TRACE_FILE ARGS...

Imports minseq.cli, installs the layer wrappers, runs cli.run(ARGS) and
writes the aggregated spans, plus the wall-clock instant at which the
import finished, to TRACE_FILE. PERFBENCH_CTX labels the spans.
"""

import json
import os
import sys
import time

import minseq.cli

imported = time.time()

from tracing import Tracer  # noqa: E402  (after the import being timed)

tracer = Tracer()
tracer.ctx = os.environ.get("PERFBENCH_CTX", "-")
tracer.install(cli=True)
try:
    code = minseq.cli.run(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as fh:
        json.dump({"imported": imported, **tracer.dump()}, fh)
sys.exit(code)

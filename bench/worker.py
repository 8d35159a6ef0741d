"""The process that runs a workload's ops: one fresh interpreter per run.

It imports `memwave.cli` and then serves one JSON request per line on stdin,
answering each with one JSON line on stdout:

    {"op": [argv...]}  runs parse_and_dispatch(argv) in process; replies with
                       its exit status, wall time and process CPU time
    {"trace": bool}    switches the span tracer on or off (installing it the
                       first time); replies with the span names
    {"exit": true}     replies with peak RSS and the per-op span tables of
                       every traced op, then exits

The ops run here and nothing else, so this process's peak RSS and CPU time
belong to the program.  The parent checks outputs between requests, outside
the timed region.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from tracer import Tracer, aggregate


def main() -> None:
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # anything the program prints goes to stderr, not into the replies
    import memwave.cli as cli  # looked up per op, so the tracer's wrapper is seen

    tracer, tracing, installed = None, False, []
    traced_ops = []
    for line in sys.stdin:
        request = json.loads(line)
        if "op" in request:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                status = cli.parse_and_dispatch(request["op"])
            except Exception:
                traceback.print_exc()
                status = -1
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if tracing:
                traced_ops.append({"wall": wall, "spans": aggregate(tracer.take())})
            reply = {"rc": status, "wall": wall, "cpu": cpu}
        elif "trace" in request:
            tracing = request["trace"]
            if tracer is None:
                tracer = Tracer()
                installed = tracer.install()
            tracer.attach(tracing)
            reply = {"installed": installed}
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            replies.write(json.dumps({"peak_rss_mb": peak_kib / 1024.0,
                                      "traced_ops": traced_ops}) + "\n")
            return
        replies.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()

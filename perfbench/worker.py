"""One workload in one fresh interpreter; spawned by run.py, not run by hand.

The worker imports the package, builds the workload's inputs from the
seed and warms up, then prints READY; run.py takes the time from spawn
to READY as set-up time.  With --setup-only it stops there.  Otherwise
it runs the closed loop, one op in flight, timing each op and checking
its output with the oracle outside the timed call, and prints one JSON
line of results.

The loop runs the workload's op slots in turn.  With --ops 0 it runs at
least one whole cycle of the mix and then starts an op only while it
would end within --seconds, judged by the previous latency of the same
slot; run.py summarises each slot by its own median, so a last partial
cycle does not tilt the mix.  With --ops K it runs exactly K ops, which
the traced run uses so its counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

# timed before anything else imports numpy, so this is the package's cold import
_t0 = time.perf_counter()
import maxdiv.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inproc", action="store_true", help="run cli ops through maxdiv.cli.main in process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans to this CSV path")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        # before the workload is built, so methods it binds are the traced ones
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, inproc=args.inproc)
        workload.tracer = tracer
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = _loop(workload, tracer, args.seconds, args.ops)
        result["import_s"] = IMPORT_S
        if tracer is not None:
            extra = dict(workload.layer_info(), **{"cli.import_s": IMPORT_S})
            result["layers"] = tracing.layer_metrics(tracer, result["attempted"], extra)
            if args.spans:
                tracer.write(args.spans)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_kb"] = child_rss if args.workload == "cli" and not args.inproc else self_rss
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _loop(workload, tracer, seconds: float, ops: int) -> dict:
    latencies: list[float] = []
    digests: list[str] = []
    failures: list[str] = []
    start = time.perf_counter()
    index = 0
    while index < ops if ops else (
        index < workload.cycle or time.perf_counter() - start + latencies[index - workload.cycle] <= seconds
    ):
        out = None
        error = None
        if tracer is not None:
            tracer.current_op = index
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = workload.run(index)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"op {index} raised {exc!r}"
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                workload.check(index, out)
                digests.append(workload.digest(index, out))
            except Exception as exc:
                error = f"op {index} failed its check: {exc!r}"
        if error is not None:
            failures.append(error)
            digests.append("")
        index += 1
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    return {
        "attempted": index,
        "failed": len(failures),
        "cycle": workload.cycle,
        "latencies": latencies,
        "digests": digests,
        "wall_s": time.perf_counter() - start,
    }


if __name__ == "__main__":
    sys.exit(main())

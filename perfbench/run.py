"""maxdiv benchmark: one workload, closed loop, one op in flight.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 20 --trace 0

Run from a checkout that holds ``src/maxdiv``.  Each workload runs in
fresh interpreters (see worker.py) with ``src`` on PYTHONPATH, the
BLAS/OpenMP pools held at one thread and every process pinned to one
CPU, so set-up time and peak memory belong to that workload alone.

--trace 0 times the workload for --seconds and reports the end-to-end
metrics: set-up time (median of SETUP_REPEATS fresh interpreters, taken
before and after the timed phase; on cli a ``maxdiv --help`` run), ops
per second of one cycle of the op mix at each slot's median latency,
the geometric mean over the slots of each slot's median latency, and
peak resident memory.  On registry, whose mix is one op, these are the
plain median latency and its inverse.  op_ms_p90 (where a run holds at
least 100 ops) and fail_frac are printed on the summary line above the
result; they are not in the result, because the result carries only
metrics that are never 0 and that every workload reports.

--trace 1 runs a fixed number of ops (TRACE_OPS) twice, untraced and
then traced with the per-layer spans of tracer.py, and reports the
per-layer metrics.  The traced outputs must be byte-identical to the
untraced ones, and the gap between the two op times is reported as
trace.overhead_frac.  On cli the traced ops run in process through
maxdiv.cli.main, so their overhead is taken against an untraced
in-process pass as well.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  A line above it records the machine and the versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402

SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 170
TRACE_OPS = {"registry": 2, "bulk-sample": 27, "cli": 7, "small-calls": 200}
WORKLOADS = tuple(TRACE_OPS)
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_ms_p50", "ms"), ("peak_rss_mb", "MB"))
OUT_DIR = ROOT / ".perfbench-out"


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MAXDIV_SEED", None)  # the CLI reads it as a default seed
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
    }


def _worker(workload: str, seed: int, *flags: str) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", str(OUT_DIR), *flags,
    ]


def _spawn(argv: list[str]) -> tuple[float, dict | None]:
    """Run a worker; return (seconds from spawn to READY, its result line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=_env(), cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(argv[2:])} exited with {code}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def _setup_times(workload: str, seed: int, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        if workload == "cli":
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "maxdiv.cli", "--help"],
                env=_env(), cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
            )  # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
            times.append(time.perf_counter() - start)
        else:
            times.append(_spawn(_worker(workload, seed, "--setup-only"))[0])
    return times


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    # set-up is sampled before and after the timed phase, so one slow
    # moment of the machine does not set a run's set-up time
    setup = _setup_times(workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    _, res = _spawn(_worker(workload, seed, "--seconds", str(seconds)))
    setup += _setup_times(workload, seed, SETUP_REPEATS // 2)
    lat = res["latencies"]
    # Each op slot of the mix is summarised by its own median: a run
    # repeats every slot several times, and the host can stall any one op
    # by a third.  The median of the pooled latencies would instead pick
    # whichever slot lies in the middle, and slots of similar cost
    # (on cli: ar1 --steps, ep --path and table) trade that place from
    # run to run.
    cycle = res["cycle"]
    slots = [statistics.median(lat[j::cycle]) for j in range(cycle)]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": cycle / sum(slots),
        "op_ms_p50": statistics.geometric_mean(slots) * 1e3,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    summary = {
        "ops": len(lat),
        "op_ms_p90": _percentile(lat, 90) * 1e3 if len(lat) >= 100 else None,
        "fail_frac": res["failed"] / res["attempted"],
    }
    return res, {"metrics": metrics, "summary": summary}


def trace(workload: str, seed: int) -> tuple[dict, dict]:
    ops = str(TRACE_OPS[workload])
    _, plain = _spawn(_worker(workload, seed, "--ops", ops))
    baseline = plain
    if workload == "cli":
        _, baseline = _spawn(_worker(workload, seed, "--ops", ops, "--inproc"))
    spans = OUT_DIR / f"spans-{workload}-{seed}.csv"
    flags = ["--ops", ops, "--trace", "1", "--spans", str(spans)]
    _, traced = _spawn(_worker(workload, seed, *flags, *(["--inproc"] if workload == "cli" else [])))
    mismatched = sum(a != b for a, b in zip(plain["digests"], traced["digests"]))
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = sum(traced["latencies"]) / sum(baseline["latencies"]) - 1.0
    failed = traced["failed"] + plain["failed"] + mismatched
    if baseline is not plain:
        failed += baseline["failed"]
        mismatched += sum(a != b for a, b in zip(plain["digests"], baseline["digests"]))
    res = {"attempted": traced["attempted"], "failed": failed}
    summary = {"ops": traced["attempted"], "digest_mismatches": mismatched, "spans": str(spans.relative_to(ROOT))}
    return res, {"metrics": layers, "summary": summary}


def _declared(trace_run: bool) -> dict[str, str]:
    if trace_run:
        return {name: unit for name, unit, _better, _moves in tracer.PER_LAYER}
    return dict(END_TO_END)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "maxdiv" / "__init__.py").is_file():
        print(f"no maxdiv package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # One CPU for the whole process tree, the last one allowed: CPU 0 is
    # where housekeeping threads and interrupts usually run.
    machine = _machine()
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print("env " + json.dumps(dict(machine, pinned_cpu=cpu)), flush=True)
    try:
        if args.trace:
            res, report = trace(args.workload, args.seed)
        else:
            res, report = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    units = _declared(bool(args.trace))
    if set(units) != set(report["metrics"]):
        print(f"metrics differ from the declared list: {set(units) ^ set(report['metrics'])}", file=sys.stderr)
        return 1
    print(f"{args.workload} summary " + json.dumps(report["summary"]), flush=True)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

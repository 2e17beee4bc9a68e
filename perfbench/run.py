"""Benchmark for iotfed: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload paper-default --seed 3 --seconds 30 --trace 0

The seed is the experiment master seed the workload's inputs are made
from. An operation runs back to back until the next one would overrun
``--seconds``; each output is checked, and every run of one invocation
must produce the same digest. The last line of stdout is one JSON object.

``--trace 0`` reports the end-to-end metrics: median operation time, set-up
time (imports plus the median of several set-ups) and peak resident memory.
``--trace 1`` alternates untraced and traced operations and reports the per-layer metrics of ``spans.py`` plus the tracing
overhead; the spans go to ``.perfbench/trace-<workload>-seed<n>.jsonl``.
``--smoke`` swaps in tiny inputs so the benchmark itself can be checked
in seconds (see ``smoke.py``).
"""

import os
import sys
import time

_T0 = time.perf_counter()
# One BLAS thread, set before numpy is first imported: the experiment is a
# single-process pipeline and its timings must not depend on core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=3, help="experiment master seed (default 3)")
    p.add_argument("--seconds", type=float, default=30.0, help="length of the measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the benchmark")
    return p.parse_args(argv)


def conditions(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__, "seed": seed}


class Checker:
    """Checks each output and requires one digest across the invocation."""

    def __init__(self, workload):
        self.workload = workload
        self.digest = None

    def __call__(self, inputs, output) -> bool:
        try:
            digest = self.workload.check(inputs, output)
        except Exception:
            traceback.print_exc()
            return False
        if self.digest is None:
            self.digest = digest
            print(f"digest {self.workload.name} {digest}")
            text = self.workload.show(output)
            if text:
                print(text, end="" if text.endswith("\n") else "\n")
        elif digest != self.digest:
            print(f"error: digest {digest} differs from the first run's {self.digest}",
                  file=sys.stderr)
            return False
        return True


def timed_op(workload, inputs, check, tracer=None) -> tuple[float, bool]:
    """One operation in a fresh work directory: its wall time and whether its output passed."""
    workdir = Path(tempfile.mkdtemp(prefix="op-", dir=OUT))
    try:
        start = time.perf_counter()
        try:
            with tracer.span("op") if tracer else nullcontext():
                output = workload.op(inputs, workdir)
        except Exception:
            traceback.print_exc()
            return time.perf_counter() - start, False
        elapsed = time.perf_counter() - start
        return elapsed, check(inputs, output)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(failed, attempted, metrics) -> str:
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "iotfed" / "__init__.py").is_file():
        print(f"error: no iotfed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import_s = time.perf_counter() - _T0

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    params = workload.smoke_params if args.smoke else workload.params
    cond = conditions(args.seed)
    print("conditions " + json.dumps(cond))
    print(f"workload {workload.name} {json.dumps(params)}")
    OUT.mkdir(exist_ok=True)
    check = Checker(workload)

    if args.trace:
        from spans import Tracer, largest_self_times, layer_metrics

        tracer = Tracer()
        with tracer.installed(), tracer.span("setup"):
            inputs = workload.setup(args.seed, params)
        # Untraced and traced operations alternate, so drift in the machine's
        # speed lands on both sides of the overhead estimate.
        plain, traced, failed = [], [], 0
        deadline = time.perf_counter() + args.seconds
        while not plain or time.perf_counter() + statistics.median(plain) \
                + statistics.median(traced) <= deadline:
            elapsed, ok = timed_op(workload, inputs, check)
            plain.append(elapsed)
            failed += not ok
            with tracer.installed():
                elapsed, ok = timed_op(workload, inputs, check, tracer)
            traced.append(elapsed)
            failed += not ok
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(path, {"conditions": cond, "workload": workload.name, "params": params,
                            "metrics": metrics})
        print(f"trace written to {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        print("largest self times per op: " + ", ".join(
            f"{name} {t:.3f} s" for name, t in largest_self_times(tracer)))
        times = plain + traced
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            inputs = None  # drop the last set-up's inputs so peak memory holds one copy
            start = time.perf_counter()
            inputs = workload.setup(args.seed, params)
            setups.append(time.perf_counter() - start)
        times, failed = [], 0
        deadline = time.perf_counter() + args.seconds
        while not times or time.perf_counter() + statistics.median(times) <= deadline:
            elapsed, ok = timed_op(workload, inputs, check)
            times.append(elapsed)
            failed += not ok
        metrics = {
            "op_s": (statistics.median(times), "s"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"op_s {metrics['op_s'][0]:.4f} s (median of {len(times)} operations: "
              + " ".join(f"{t:.3f}" for t in times) + ")")
        print(f"setup_s {metrics['setup_s'][0]:.4f} s (imports {import_s:.4f} s plus the "
              f"median of {SETUP_REPEATS} set-ups)")
        print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"failed_frac {failed / len(times):.4f} ratio ({failed} of {len(times)} operations)")
    print(result_line(failed, len(times), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

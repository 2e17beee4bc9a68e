"""Self-check of the benchmark: every workload at a tiny size, traced and untraced.

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json this runs ``run.py --smoke`` once with
``--trace 0`` and once with ``--trace 1``, each in its own process, and
checks that the last line of output is a result holding exactly the
metrics BENCHMARK.json lists for that mode, each in its unit, that no
operation failed, and that the failed fraction and sample count are
printed. It then checks that run.py exits non-zero, printing no result,
in a copy of the benchmark that lacks the iotfed sources. Takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_workload(name: str, trace: int, expected: dict[str, str]) -> list[str]:
    proc = run([*RUN, "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke"], ROOT)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if units != expected:
        problems.append(f"{where}: metrics {units} != {expected}")
    if not any(line.startswith("failed_frac 0.0000 ratio") for line in lines):
        problems.append(f"{where}: no failed_frac line")
    if trace == 0 and not any(line.startswith("op_s ") and "median of" in line for line in lines):
        problems.append(f"{where}: no op_s line with its sample count")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run([*RUN, "--workload", "paper-default", "--seed", "3", "--seconds", "1",
                    "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run.py printed a result without the iotfed sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_workload(workload["name"], trace, expected[trace])
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    problems += check_refuses_without_sources()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

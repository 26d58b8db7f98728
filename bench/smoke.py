"""Smoke test of the benchmark: every workload at a tiny size.

    python3 bench/smoke.py

Runs ``run.py --quick`` on each workload with tracing off and on, prints
every metric by name with its unit, and fails (exit 1) unless

* each run exits 0 with ``correct: true`` and both golden fixtures
  reproduced,
* the metrics are exactly those BENCHMARK.json names, with its units,
* the traced and untraced runs print the same ``sim_digest``,

and unless ``run.py`` refuses (nonzero exit, no result line) in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    if out.returncode:
        sys.stderr.write(out.stderr)
    return out.returncode, out.stdout.strip().splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            code, lines = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if code or len(lines) < 2:
                problems.append(f"{tag}: exit {code}")
                continue
            result, info = json.loads(lines[-1]), json.loads(lines[-2])
            digests[trace] = info["sim_digest"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: outputs not correct")
            if not all(info["fixtures"].values()):
                problems.append(f"{tag}: golden fixtures not reproduced")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics {sorted(got)} differ from BENCHMARK.json")
            print(f"{tag}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"sim_digest {info['sim_digest'][:16]}")
            for name, m in {**result["metrics"], **info["report"]}.items():
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
        if len(set(digests.values())) != 1:
            problems.append(f"{workload}: traced and untraced sim_digest differ")

    # without the package source the benchmark must refuse to run
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_build"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("campaign", 0, cwd=bare)
        if code == 0 or any(line.startswith("{") for line in lines):
            problems.append("run.py did not refuse a checkout without the package source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL: {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

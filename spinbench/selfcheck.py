"""Self-check of the benchmark itself.

    python3 spinbench/selfcheck.py [--seconds 1]

Runs every workload of BENCHMARK.json on three seeds, twice untraced and once
traced, for a few ops each.  Exits 1 and names each problem: an op that
failed, metric names or units that differ from BENCHMARK.json, or exact
counters that differ between the three runs of one seed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = (1, 2, 3)


def run(workload, seed, trace, seconds):
    """(result JSON, exact counters) of one run of run.py."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    exact = next(line for line in lines if line.startswith("exact "))
    return json.loads(lines[-1]), json.loads(exact.split(" ", 1)[1])


def check(workload, seed, seconds):
    problems = []
    want = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    runs = [(trace, *run(workload, seed, trace, seconds)) for trace in (0, 0, 1)]
    for trace, result, _ in runs:
        where = f"{workload} seed {seed} trace {trace}"
        if not result["correct"] or result["failed"]:
            problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want[trace]:
            problems.append(f"{where}: metrics {sorted(set(got.items()) ^ set(want[trace].items()))}")
    exacts = [exact for _, _, exact in runs]
    traced = runs[2][1]["metrics"]
    exacts.append({k: traced[k]["value"] for k in exacts[0] if k in traced})
    if any(e != exacts[0] for e in exacts):
        problems.append(f"{workload} seed {seed}: exact counters differ: {exacts}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in SEEDS:
            found = check(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

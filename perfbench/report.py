"""Run every workload untraced, then traced, and print all metrics by name and unit.

Run from the root of the repository:

    python3 perfbench/report.py [--seed N] [--workload NAME ...]

For each workload it prints the end-to-end metrics, failed_frac, the tracing
overhead (traced wall_s minus untraced wall_s) and the per-layer metrics, with
the largest self times first.  The runs are made one after the other, each a
single process of run.py.  Exits non-zero if any run fails its golden check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, trace, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        plain = run(workload, args.seed, 0, spec["run_seconds"])
        traced = run(workload, args.seed, 1, spec["run_seconds"])
        print("== %s (seed %d)" % (workload, args.seed))
        if plain is None or traced is None:
            print("   FAILED: see stderr")
            ok = False
            continue
        for name, m in plain["metrics"].items():
            print("   %-36s %14.4f %s" % (name, m["value"], m["unit"]))
        print("   %-36s %14.4f (%d of %d items)" % (
            "failed_frac", plain["failed"] / plain["attempted"], plain["failed"], plain["attempted"]))
        layers = traced["metrics"]
        overhead = layers["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        print("   %-36s %14.4f s" % ("tracing overhead", overhead))
        order = sorted(layers.items(), key=lambda kv: (kv[1]["unit"] != "s", -kv[1]["value"]))
        for name, m in order:
            value = "%14d" % m["value"] if m["unit"] == "count" else "%14.4f" % m["value"]
            print("   %-36s %s %s" % (name, value, m["unit"]))
        ok = ok and plain["correct"] and traced["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

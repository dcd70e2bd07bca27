#!/usr/bin/env python3
"""Run the benchmark once per seed and report, for each metric, the median
and the quartile spread (distance between the first and third quartile as a
share of the median) next to the bound ``BENCHMARK.json`` fixes.

    python3 perfbench/spread.py --workload threshold --seeds 1 2 3 4 5 [--trace 0]

Runs are sequential.  The per-seed values and the summary are written to
``perfbench/out/spread-<workload>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        res = json.loads(done.stdout.splitlines()[-1])
        failed += res["failed"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: failed {res['failed']}/{res['attempted']} " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in res["metrics"].items() if bounds.get(k) is not None),
            file=sys.stderr)

    summary = {}
    print(f"{args.workload}, {len(args.seeds)} seeds, {failed} failed operations")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound, "values": vals}
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"  {name:42s} median {med:<12.6g} {units[name]:6s} spread {spread:8.4f}"
              + (f"  bound {bound:g} {flag}" if bound is not None else ""))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
                    "failed": failed, "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

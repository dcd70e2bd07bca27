#!/usr/bin/env python3
"""bellscope benchmark.

    python3 perfbench/run.py --workload {threshold,exact,all} \\
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from
``src/``.  Each workload (see ``workloads.py``) runs rounds of seeded
operations, stopping at the round boundary nearest to ``--seconds`` (after at
least one round), checks every output, and prints, as the last line of
stdout, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  A line before it carries the provenance.  A table with
sample counts goes to stderr and the full record to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

- ``setup_s``: import, ``load_catalog`` and the first round's inputs; the
  median of seven set-ups, six of them in fresh interpreters;
- ``wall_s``: time of the timed section of a round, i.e. the summed time
  of its operations (for ``threshold``, the time to solution of its
  searches); the mean of the middle half of the rounds run;
- ``op_ms.p50``, ``op_ms.p90``: latency of one operation (a threshold
  search or an exact query).  p50 is each round's median, and of
  those the median over the rounds run: a threshold round holds two
  searches of different cost, so the median of all its searches would fall
  between the two.  p90 is taken over all operations of the run;
- ``peak_rss_mb``: peak resident memory of the benchmark process (under
  ``--workload all``, the peak of every workload run so far in it).

``--trace 1`` runs half the time untraced and then as many rounds again with
spans recorded around each layer's public functions (``layers.py``), and
reports the per-layer metrics.  ``--workload all`` runs both workloads
in one process.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("threshold", "exact")
SETUP_SAMPLES = 7


def setup(name: str, seed: int):
    """Import the package, load the catalog and make round 0's inputs."""
    t0 = time.perf_counter()
    from bellscope.catalog import load_catalog
    import workloads

    workload = workloads.WORKLOADS[name](load_catalog())
    first = workload.round(seed, 0)
    return workload, first, time.perf_counter() - t0


def setup_samples(name: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


@dataclass
class Phase:
    """Latencies per round, failures and facts of a run of rounds.  Every
    round of a workload runs the same list of operations on fresh inputs."""

    rounds: list[list[float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    facts: dict[str, list] = field(default_factory=dict)

    @property
    def latencies(self) -> list[float]:
        return [x for r in self.rounds for x in r]

    def round_s(self) -> float:
        """Mean time of the middle half of the rounds, sorted by time: a
        round hit by a burst on the shared host counts as little as one
        with an unusually cheap seed."""
        walls = sorted(sum(r) for r in self.rounds)
        cut = len(walls) // 4
        return statistics.fmean(walls[cut:len(walls) - cut])


def run_rounds(workload, ops, seed: int, index: int, seconds: float = 0.0,
               rounds: int | None = None, tracer=None) -> Phase:
    """Run rounds from ``index`` on, starting with ``ops``, until ``rounds``
    rounds are done or, without ``rounds``, until the round boundary nearest
    to ``seconds``: a threshold round takes a large share of the budget, and
    stopping at the first boundary past it could lengthen the run by one."""
    from workloads import CheckFailed

    phase = Phase()
    started = time.perf_counter()
    while True:
        latencies = []
        for op in ops:
            ctx = tracer.op() if tracer is not None else nullcontext()
            error = None
            with ctx:
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # reported as a failed operation
                    error = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if error is None:
                try:
                    for key, value in op.check(result).items():
                        phase.facts.setdefault(key, []).append(value)
                except CheckFailed as exc:
                    error = str(exc)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                phase.failures.append(f"round {index}, {op.label}: {error}")
        phase.rounds.append(latencies)
        index += 1
        elapsed = time.perf_counter() - started
        done = len(phase.rounds) >= rounds if rounds is not None else \
            elapsed + elapsed / len(phase.rounds) / 2 >= seconds
        if done:
            return phase
        ops = workload.round(seed, index)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(phase: Phase, setups: list[float]) -> dict:
    ms = [x * 1e3 for x in phase.latencies]
    p50 = statistics.median(statistics.median(r) * 1e3 for r in phase.rounds)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (phase.round_s(), "s", len(phase.rounds)),
        "op_ms.p50": (p50, "ms", len(ms)),
        "op_ms.p90": (quantile(ms, 90), "ms", len(ms)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def traced(workload, seed: int, untraced: Phase) -> tuple[Phase, dict, list]:
    """Run as many rounds again as the untraced phase ran, with spans
    recorded, then time the see-saw layers; returns the phase, the per-layer
    metrics and one row per see-saw case.  The traced rounds repeat the
    untraced inputs where the workload allows it, so the overhead compares
    equal work."""
    import layers
    import spans

    n = len(untraced.rounds)
    start = 0 if workload.replay_in_trace else n
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        phase = run_rounds(workload, workload.round(seed, start), seed, start, rounds=n, tracer=tracer)
    finally:
        tracer.close()
    section, rows = layers.seesaw_section(workload.layer_cases(), seed)
    errs = untraced.facts.get("alpha_err", []) + phase.facts.get("alpha_err", [])
    metrics = layers.per_layer(
        tracer, untraced.round_s(), phase.round_s(),
        sum(phase.latencies), section, max(errs, default=0.0),
        workload.properties().get("canonical_form_repeat_frac", 0.0))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.npz")
    return phase, {k: (v, u, 1) for k, (v, u) in metrics.items()}, rows


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload, args) -> dict:
    import numpy as np

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": blas_threads(),
                 "env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                         if k in os.environ}},
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "why": why, "properties": workload.properties(),
    }


def run_workload(name: str, args) -> dict:
    workload, first, own_setup = setup(name, args.seed)
    setups = [own_setup] + setup_samples(name, args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_rounds(workload, first, args.seed, 0, seconds=budget)
    phases, rows = [untraced], []
    if args.trace:
        phase, metrics, rows = traced(workload, args.seed, untraced)
        phases.append(phase)
    else:
        metrics = end_to_end(untraced, setups)
    failures = [f for p in phases for f in p.failures]
    attempted = sum(len(p.latencies) for p in phases)
    record = {
        "provenance": provenance(workload, args),
        "result": {"correct": not failures, "attempted": attempted, "failed": len(failures),
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}},
        "samples": {k: n for k, (_, _, n) in metrics.items()},
        "rounds": [len(p.rounds) for p in phases],
        "facts": {k: {"min": min(v), "median": statistics.median(v), "max": max(v)}
                  for k, v in untraced.facts.items()},
        "failures": failures,
        "layer_cases": rows,
        "latencies_ms": [[round(x * 1e3, 4) for x in r] for r in untraced.rounds],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    report(record)
    return record


def report(record: dict) -> None:
    res = record["result"]
    prov = record["provenance"]
    print(f"\n{prov['workload']} (seed {prov['seed']}, trace {prov['trace']}): "
          f"{res['attempted']} operations in rounds {record['rounds']}, {res['failed']} failed "
          f"(failed_frac {res['failed'] / res['attempted']:.4g})", file=sys.stderr)
    for key, f in record["facts"].items():
        print(f"  {key}: min {f['min']:.4g}, median {f['median']:.4g}, max {f['max']:.4g}",
              file=sys.stderr)
    for key, m in res["metrics"].items():
        print(f"  {key:42s} {m['value']:>14.6g} {m['unit']:6s} n={record['samples'][key]}",
              file=sys.stderr)
    for row in record["layer_cases"]:
        print("  case " + "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                    for k, v in row.items()), file=sys.stderr)
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bellscope" / "__init__.py").is_file():
        print(f"error: no bellscope sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(setup(args.workload, args.seed)[2])
        return 0

    names = NAMES if args.workload == "all" else (args.workload,)
    records = [run_workload(name, args) for name in names]
    for rec in records[:-1]:
        print(json.dumps(rec["result"]))
    print(json.dumps({"provenance": records[-1]["provenance"]}))
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        results = [r["result"] for r in records]
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": m for n, r in zip(names, results) for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

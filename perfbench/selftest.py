#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Runs every workload on shrunken inputs, untraced and traced, and checks that
the result line has the contract's keys and every metric that
``BENCHMARK.json`` names, with its unit; that the tracer's self times add up;
and that the benchmark refuses to run without the package sources.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int) -> dict:
    out = io.StringIO()
    small = [("A2_CHSH", 2, 1e-2, 1 / math.sqrt(2), 5e-2)]
    with mock.patch.object(workloads, "SEARCHES", small), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_every_named_metric_is_emitted_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in run.NAMES:
            res = _result(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
                if trace == 0:
                    assert m["value"] > 0, (workload, name)


def test_self_times_add_up_to_the_operation():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    tr = spans.Tracer()
    tr.wrap(mod, "inner", "inner")
    tr.wrap(mod, "outer", "outer")
    mod.outer()  # outside an op: not recorded
    with tr.op():
        mod.outer()
        sum(range(200000))  # unwrapped work inside the operation
    tr.close()
    s = tr.summary()
    assert s["inner"]["calls"] == 3 and s["outer"]["calls"] == 1
    op = s["bench.op"]["total_s"]
    assert abs(sum(v["self_s"] for v in s.values()) - op) < 1e-9
    assert abs(s["outer"]["total_s"] - s["outer"]["self_s"] - s["inner"]["total_s"]) < 1e-9
    assert s["inner"]["self_s"] + s["outer"]["self_s"] < 0.9 * op  # the unwrapped work shows
    top = tr.summary(top_level=True)
    assert top["outer"]["calls"] == 1 and top["inner"]["calls"] == 0


def test_refuses_to_run_without_sources():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "exact",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")

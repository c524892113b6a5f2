"""Tests of the benchmark itself.

    python -m pytest bench/test_bench.py

Run from the root of the checkout.  The work counts of a traced run do not
depend on the machine, so two traced runs on one seed must agree exactly;
they are the noise-free companions of the timings.
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _traced_counts(tmp_path, workload: str, name: str) -> dict:
    inputs = tmp_path / "inputs.json"
    if not inputs.exists():
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                        "--workload", workload, "--seed", "7", "--blocks", "1",
                        "--out", str(inputs)], cwd=ROOT, env=ENV, check=True)
    out = tmp_path / f"{name}.json"
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--inputs", str(inputs),
                    "--out", str(out), "--passes", "1", "--trace",
                    "--t0", repr(time.monotonic())],
                   cwd=ROOT, env=ENV, check=True)
    result = json.loads(out.read_text())
    assert all(op["error"] is None for op in result["ops"])
    t = result["trace"]
    return {"calls": t["calls"], "faces_out": t["faces_out"],
            "pairs": t["pairs"], "caches": t["caches"]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat(tmp_path, workload):
    first = _traced_counts(tmp_path, workload, "first")
    second = _traced_counts(tmp_path, workload, "second")
    assert first == second
    assert first["calls"]["cli.run"] > 0
    assert first["faces_out"] > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(208) == 95
    assert run.tail_percentile(1000) == 99


def test_pooled_keeps_every_sample():
    def op(key, latency, sha="x", error=None):
        return {"key": key, "latency_s": latency, "sha256": sha, "error": error}
    passes = [[op("a", 2.0), op("b", 1.0)], [op("a", 1.5), op("b", 3.0, sha="y")]]
    ops = worker.pooled(passes)
    assert [o["samples_s"] for o in ops] == [[2.0, 1.5], [1.0, 3.0]]
    assert ops[0]["error"] is None
    assert ops[1]["error"] == "output bytes differ between passes"
    assert run.samples({"ops": ops}) == [1.0, 1.5, 2.0, 3.0]


def test_golden_gate_reproduces_the_frozen_bytes():
    ops = run.golden_gate(run.Runner(ROOT))
    assert len(ops) == len(os.listdir(os.path.join(HERE, "data", "golden_out")))
    assert run.count_failures(ops, "survey", 7) == []


def test_importtime_counts_outermost_horofan_imports_once():
    def line(self_us, cumulative_us, depth, name):
        return f"import time: {self_us:9d} | {cumulative_us:10d} | {'  ' * depth}{name}"
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        line(100, 100, 2, "json"),
        line(50, 50, 2, "horofan.lattice"),
        line(20, 170, 1, "horofan"),
        line(30, 30, 1, "argparse"),
        line(10, 210, 0, "horofan.cli"),
        line(5, 5, 0, "spans"),
    ])
    assert spans.importtime_s(log) == pytest.approx(210e-6)

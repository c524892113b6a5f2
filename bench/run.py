#!/usr/bin/env python3
"""horofan benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 bench/run.py --workload survey|scale --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Each run:

1. generates its inputs from the seed in a separate process (bench/gen.py),
   so input generation neither warms the measured process's caches nor
   counts as its work;
2. runs the workload's fixed set of ops in one measured process
   (bench/worker.py), one closed-loop client and one op at a time, in
   passes until the next pass would end after --seconds (at least
   MIN_PASSES); every execution of an op is one latency sample; every
   output is checked;
3. times the set-up of twelve more measured processes, half before and
   half after the run (`setup_s` is the median of thirteen set-ups);
4. runs every golden command once through `python -m horofan.cli`,
   untimed, and compares its stdout with the frozen bytes;
5. prints a table, then one JSON line: with `--trace 0` the end-to-end
   metrics, with `--trace 1` the per-layer metrics of one traced pass,
   next to one untraced pass of the same ops.

Workloads (see gen.py for the inputs):

* survey - coloured fans sampled with horofan.sampling, in seeded
  coordinates: classify, cox (after split when the fan has a torus
  factor), decolour.  Stresses the lattice and fans layers: SNF entry
  points, pairwise intersect, revalidation.
* scale  - one cyclic cone per document, in seeded coordinates: classify
  up to 14 facets, cox up to 6 rays.  Stresses cones.faces, which is
  exponential in the facet count, and the lifted fan of cox.

What a shell user pays before any op, interpreter start and the import of
horofan.cli, is `setup_s` on both workloads.

The run record (Python version, nproc, git revision, seed, load average
before and after, CPU time stolen by the hypervisor during the run, tail
percentile and its sample count, fail ratio) is printed with the table
and written to .bench_out/<run>/record.json; a disturbed run shows there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 1
DEADLINE_S = 170
SETUP_SAMPLES = 13

# Blocks of ops per run.  Every run measures the same fixed set of ops in
# passes; the ops and the cache state they meet are the same in every pass.
# A shared machine runs 0-60% slower than its best, changing within
# seconds, so the metrics pool every execution of the run rather than pick
# single ones.  A fixed set keeps the op mix equal across commits;
# --seconds sets how many passes run.
WORKLOADS = {"survey": 1, "scale": 2}

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_PASSES = 4  # bench/worker.py runs at least this many passes

LAYER_FUNCTIONS = {
    "lattice": ("rank_of", "smith_normal_form", "kernel_basis",
                "saturation_with_extension", "unimodular_inverse",
                "extends_to_Z_basis", "cokernel_structure"),
    "cones": ("cone_from_generators", "faces", "intersect", "is_face_of",
              "contains"),
    "fans": ("validate_fan", "coloured_rays", "coloured_face"),
    "classification": ("classify", "classify_cone"),
    "cox": ("torus_split", "has_torus_factors", "cox_construct"),
    "dynkin": ("vivid_colour_ok",),
    "local": ("decolour", "affine_local"),
    "document": ("parse", "build", "render", "document_for_fan"),
    "cli": ("run", "render_machine"),
}


class BenchError(Exception):
    pass


def nearest_rank(sorted_values: list[float], p: float) -> float:
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n_min: int) -> float | None:
    """Highest ladder percentile with at least ten of n_min samples beyond it.
    Runs take it from their fewest possible samples (ops x MIN_PASSES), so
    it does not change with the number of passes."""
    ok = [p for p in TAIL_LADDER[1:]
          if n_min - max(1, math.ceil(p / 100 * n_min)) >= 10]
    return max(ok) if ok else None


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def steal_s() -> float | None:
    """CPU time the hypervisor gave to others since boot, all CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_revision(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Starts child processes against one deadline and always reaps them."""

    def __init__(self, root: str):
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run(self, argv: list[str], what: str,
            check: bool = True) -> tuple[str, str, int]:
        """stdout, stderr and exit code of `argv`; with `check`, a non-zero
        exit code raises BenchError."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before {what}")
        # a session of its own, so a timeout also stops the worker's children
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{what} did not finish in time") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if check and proc.returncode != 0:
            raise BenchError(f"{what} failed with exit code {proc.returncode}:\n"
                             f"{err[-2000:]}")
        return out, err, proc.returncode

    def worker(self, outdir: str, name: str, extra: list[str],
               importtime: bool = False) -> tuple[dict, str]:
        out = os.path.join(outdir, f"{name}.json")
        argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
        argv += [os.path.join(HERE, "worker.py"),
                 "--inputs", os.path.join(outdir, "inputs.json"), "--out", out]
        argv += extra + ["--t0", repr(time.monotonic())]
        _, err, _ = self.run(argv, f"worker ({name})")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh), err


def frozen_golden_digests() -> dict[str, str]:
    out = {}
    folder = os.path.join(DATA, "golden_out")
    for name in os.listdir(folder):
        with open(os.path.join(folder, name), "rb") as fh:
            out[name[:-len(".out")]] = hashlib.sha256(fh.read()).hexdigest()
    return out


def golden_gate(runner: Runner) -> list[dict]:
    """Every golden command once through `python -m horofan.cli ... --format
    machine`, untimed: what a shell user gets must stay byte for byte the
    frozen output (count_failures compares the digests)."""
    ops = []
    for name, command in gen.GOLDEN_OPS:
        verb, *opts = command.split(" ")
        out, err, code = runner.run(
            [sys.executable, "-m", "horofan.cli", verb,
             os.path.join(DATA, "goldens", name), *opts, "--format", "machine"],
            f"golden {name} {verb}", check=False)
        golden = f"{name[:-len('.json')]}.{verb}"
        op = {"key": f"golden.{golden}", "golden": golden, "error": None,
              "sha256": hashlib.sha256(out.encode()).hexdigest()}
        if code != 0:
            op["error"] = f"exit code {code}: {err[-300:]}"
        ops.append(op)
    return ops


def count_failures(ops: list[dict], workload: str, seed: int) -> list[str]:
    """Mark ops whose bytes differ from frozen outputs; return all failures."""
    goldens = frozen_golden_digests()
    digests = {}
    if seed == DEFAULT_SEED:
        with open(os.path.join(DATA, "digests.json"), encoding="utf-8") as fh:
            digests = json.load(fh).get(workload, {})
    failures = []
    for op in ops:
        if op["error"] is None and "golden" in op:
            if goldens.get(op["golden"]) != op["sha256"]:
                op["error"] = f"bytes differ from frozen golden {op['golden']}"
        if op["error"] is None and op["key"] in digests:
            if digests[op["key"]] != op["sha256"]:
                op["error"] = "output differs from the default-seed digest"
        if op["error"] is not None:
            failures.append(f"{op['key']}: {op['error']}")
    return failures


def samples(result: dict) -> list[float]:
    """Every op execution's latency, all passes."""
    return sorted(t for op in result["ops"] for t in op["samples_s"])


def end_to_end(result: dict, setups: list[float], tail_p: float) -> dict:
    lat = samples(result)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": nearest_rank(lat, tail_p) * 1e3, "unit": "ms"},
        "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024, "unit": "MiB"},
    }


def per_layer(traced: dict, untraced: dict, import_s: float) -> dict:
    t = traced["trace"]
    calls, self_ns = t["calls"], t["self_ns"]
    m = {}
    for layer, funcs in LAYER_FUNCTIONS.items():
        for f in funcs:
            key = f"{layer}.{f}"
            m[f"{key}.calls"] = {"value": calls.get(key, 0), "unit": "count"}
            m[f"{key}.self_s"] = {"value": self_ns.get(key, 0) / 1e9, "unit": "s"}
        layer_ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_s"] = {"value": layer_ns / 1e9, "unit": "s"}
    m["cones.faces.faces_out"] = {"value": t["faces_out"], "unit": "count"}
    for key, (hits, misses) in t["caches"].items():
        if hits + misses:
            m[f"{key}.cache_hit_ratio"] = {"value": hits / (hits + misses),
                                           "unit": "ratio"}
    m["fans.validate_fan.pairs"] = {"value": t["pairs"], "unit": "count"}
    m["cli.import_s"] = {"value": import_s, "unit": "s"}
    rate = lambda r: len(samples(r)) / sum(samples(r))
    m["trace.overhead_ratio"] = {"value": rate(traced) / rate(untraced),
                                 "unit": "ratio"}
    return m


def stress_check(workload: str, metrics: dict, traced: dict) -> str:
    """Does the workload stress the layer it was chosen for?  Informational:
    a change that speeds up the stressed layer may rightly flip it."""
    value = lambda name: metrics[name]["value"]
    if workload == "scale":
        by = traced["trace"]["self_ns_by_group"]["classify"]
        top = max(by, key=by.get)
        ok = top == "cones.faces"
        text = (f"scale classify ops: largest self time is {top} "
                f"({by[top] / sum(by.values()):.0%}), expected cones.faces")
    else:
        both = value("lattice.self_s") + value("fans.self_s")
        faces = value("cones.faces.self_s")
        ok = both > faces
        text = (f"survey: lattice.self_s + fans.self_s = {both:.3f} s, "
                f"cones.faces.self_s = {faces:.3f} s, expected the former larger")
    return f"{'PASS' if ok else 'FAIL'} {text}"


def print_table(metrics: dict, record: dict) -> None:
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        v = m["value"]
        text = f"{v:.6g}" if isinstance(v, float) else str(v)
        print(f"{name:<{width}}  {text:>14} {m['unit']}")
    for key in ("workload", "seed", "trace", "ops", "passes", "samples",
                "fail_ratio",
                "tail_percentile", "tail_samples_beyond", "python", "nproc",
                "git_revision", "loadavg_start", "loadavg_end", "steal_s"):
        if key in record:
            print(f"# {key}: {record[key]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "horofan", "cli.py")):
        print("bench: run from the root of a horofan checkout "
              "(src/horofan/cli.py not found)", file=sys.stderr)
        return 2

    outdir = os.path.join(root, ".bench_out", f"{a.workload}-s{a.seed}-t{a.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    record = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "git_revision": git_revision(root), "loadavg_start": loadavg()}
    steal_start = steal_s()
    runner = Runner(root)

    runner.run([sys.executable, os.path.join(HERE, "gen.py"),
                "--workload", a.workload, "--seed", str(a.seed),
                "--blocks", str(WORKLOADS[a.workload]),
                "--out", os.path.join(outdir, "inputs.json")], "input generation")

    if a.trace:
        once = ["--passes", "1"]
        untraced, _ = runner.worker(outdir, "untraced", once)
        traced, err = runner.worker(outdir, "traced", once + ["--trace"],
                                    importtime=True)
        results = [untraced, traced]
        metrics = per_layer(traced, untraced, spans.importtime_s(err))
        record["spans"] = traced["trace"]["spans"]
        record["stress_check"] = stress_check(a.workload, metrics, traced)
    else:
        # extra set-ups before and after the run, so they meet the machine
        # at both ends of it
        setup = lambda i: runner.worker(outdir, f"setup{i}",
                                        ["--setup-only"])[0]["setup_s"]
        setups = [setup(i) for i in range(SETUP_SAMPLES // 2)]
        result, _ = runner.worker(outdir, "run", ["--seconds", str(a.seconds)])
        setups.append(result["setup_s"])
        setups += [setup(i) for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
        results = [result]
        tail_p = tail_percentile(len(result["ops"]) * MIN_PASSES)
        metrics = end_to_end(result, setups, tail_p)
        n = len(samples(result))
        record["samples"] = n
        record["tail_percentile"] = tail_p
        record["tail_samples_beyond"] = n - max(1, math.ceil(tail_p / 100 * n))
        record["passes"] = result["passes"]
        record["pass_ops_per_s"] = result["pass_ops_per_s"]
        record["setup_samples_s"] = setups

    timed = [op for r in results for op in r["ops"]]
    ops = timed + golden_gate(runner)
    failures = count_failures(ops, a.workload, a.seed)
    record.update(ops=len(ops), failed=len(failures),
                  fail_ratio=len(failures) / len(ops),
                  failures=failures[:50], loadavg_end=loadavg(), metrics=metrics,
                  steal_s=None if steal_start is None else steal_s() - steal_start,
                  latencies_s=[[op["key"], op["samples_s"]] for op in timed])
    with open(os.path.join(outdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print_table(metrics, record)
    if "stress_check" in record:
        print(f"# stress check: {record['stress_check']}")
    for f in failures[:10]:
        print(f"# FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""Record the benchmark's frozen inputs and reference outputs under bench/data/.

    python3 bench/freeze.py

Run from the root of a checkout whose outputs are the reference.  Writes:

* data/goldens/        copies of the golden documents the golden gate runs;
* data/golden_out/     `--format machine` stdout bytes of each golden command;
* data/survey_base.json  the survey base fans, sampled with horofan.sampling;
* data/expected.json   per base fan and command, the invariants (verdict,
  cone counts, class group, split rank) that every seed's coordinates must
  reproduce;
* data/digests.json    sha256 of every op's machine output at the default
  seed, for each workload.

Later changes must keep these bytes; re-freeze only for a deliberate
output change, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def base_invariants(runner, base: dict) -> dict:
    """Run a base fan's commands as the worker does; invariants per command."""
    text = json.dumps(base["mapping"], sort_keys=True)
    out = {}
    for command in base["commands"]:
        _, output, error = runner.run(text, command)
        if error is not None:
            raise RuntimeError(f"{command} failed on a base fan: {error}")
        report = json.loads(output)
        out[report["command"]] = checks.invariants(report)
        if report["command"] == "split":
            text = json.dumps(report["document"], sort_keys=True)
    return out


def main() -> int:
    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    sys.path.insert(0, os.path.join(root, "src"))
    import worker

    goldens = os.path.join(DATA, "goldens")
    os.makedirs(goldens, exist_ok=True)
    for name in sorted({name for name, _ in gen.GOLDEN_OPS}):
        shutil.copyfile(os.path.join(root, "goldens", name),
                        os.path.join(goldens, name))

    out_dir = os.path.join(DATA, "golden_out")
    os.makedirs(out_dir, exist_ok=True)
    for name, command in gen.GOLDEN_OPS:
        verb, *opts = command.split(" ")
        proc = subprocess.run(
            [sys.executable, "-m", "horofan.cli", verb,
             os.path.join(goldens, name), *opts, "--format", "machine"],
            capture_output=True, env=env, check=True)
        with open(os.path.join(out_dir, f"{name[:-5]}.{verb}.out"), "wb") as fh:
            fh.write(proc.stdout)

    survey = gen.survey_base()
    with open(os.path.join(DATA, "survey_base.json"), "w", encoding="utf-8") as fh:
        json.dump(survey, fh, sort_keys=True)

    runner = worker.InProcess()
    expected = {}
    for b, block in enumerate(survey):
        for d, base in enumerate(block):
            expected[f"survey/b{b}.d{d}"] = base_invariants(runner, base)
    for shape in gen.SCALE_SHAPES:
        key = "scale/{}-r{}-n{}".format(*shape)
        expected[key] = base_invariants(runner, gen.scale_base(*shape))
    with open(os.path.join(DATA, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)

    digests = {}
    for workload, n_blocks in run.WORKLOADS.items():
        outdir = os.path.join(root, ".bench_out", f"freeze-{workload}")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        inputs = os.path.join(outdir, "inputs.json")
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                        "--workload", workload, "--seed", str(run.DEFAULT_SEED),
                        "--blocks", str(n_blocks), "--out", inputs],
                       env=env, check=True)
        result = os.path.join(outdir, "result.json")
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                        "--inputs", inputs,
                        "--out", result, "--passes", "1",
                        "--t0", repr(time.monotonic())],
                       env=env, check=True)
        with open(result, encoding="utf-8") as fh:
            ops = json.load(fh)["ops"]
        bad = [op for op in ops if op["error"] is not None]
        if bad:
            print(f"{workload}: {len(bad)} ops fail their checks, first: "
                  f"{bad[0]['key']}: {bad[0]['error']}", file=sys.stderr)
            return 1
        digests[workload] = {op["key"]: op["sha256"] for op in ops}
        print(f"{workload}: {len(ops)} ops recorded")
    with open(os.path.join(DATA, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

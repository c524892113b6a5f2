"""Smoke tests of the scripts under `scripts/`."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def test_work_counts_runs_on_an_inputs_file(tmp_path):
    # one block of two golden documents, in the `inputs.json` layout that
    # `bench/gen.py` writes
    block = [{"text": (ROOT / "goldens" / name).read_text(), "commands": commands}
             for name, commands in (("p2.json", ["classify", "cox"]),
                                    ("ray_with_torus_factor.json",
                                     ["classify", "split", "classify"]))]
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps([block]))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "work_counts.py"),
                           str(inputs)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "ops per pass: 5" in lines
    for key in ("extreme_rays calls", "SNF calls"):
        assert any(line.startswith(f"{key}: ") and int(line.split(": ")[1]) > 0
                   for line in lines), key

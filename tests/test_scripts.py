"""Smoke tests of the scripts under `scripts/`."""

import hashlib
import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

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
    for key in ("extreme_rays calls", "cone_from_generators calls",
                "faces uncached", "SNF calls"):
        assert any(line.startswith(f"{key}: ") and int(line.split(": ")[1]) > 0
                   for line in lines), key


# the work of one pass of the 12 golden commands, as `scripts/run_goldens.py`
# lists them; the counts do not depend on the machine, so a change that does
# more or less polyhedral or lattice work shows here
GOLDEN_WORK = ["ops per pass: 12", "extreme_rays calls: 40", "extreme_rays rows: 91",
               "extreme_rays eqs: 56", "cone_from_generators calls: 21",
               "faces uncached: 29", "intersect uncached: 49", "SNF calls: 5",
               "_bareiss calls: 11"]


def test_work_counts_of_the_golden_commands(tmp_path):
    golden_commands = runpy.run_path(str(ROOT / "scripts" / "run_goldens.py"))["COMMANDS"]
    block = [{"text": (ROOT / "goldens" / name).read_text(), "commands": commands}
             for name, commands in golden_commands.items()]
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps([block]))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "work_counts.py"),
                           str(inputs)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:len(GOLDEN_WORK)] == GOLDEN_WORK


# the sha256 of two scripts' stdout: the survey pins the draws of
# `sampling`, the goldens the human reports of every golden command
SCRIPT_DIGESTS = {
    ("survey_random_fans.py", "60"):
        "711042f3aaf107b2d832f87fd0ab120430f591f973c8dd1f722ffbf2f04baa0a",
    ("run_goldens.py",):
        "48a5bf51c842d3ab2a9be30c500f2659a03f1918ec39da89af86572b65097df1",
}


@pytest.mark.parametrize("argv", SCRIPT_DIGESTS, ids=lambda argv: argv[0])
def test_script_output_digest(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, check=True)
    assert hashlib.sha256(done.stdout).hexdigest() == SCRIPT_DIGESTS[argv]

#!/usr/bin/env python3
"""Count the polyhedral and lattice work of one pass over benchmark inputs.

Usage: PYTHONPATH=src python scripts/work_counts.py INPUTS

INPUTS is an `inputs.json` written by `bench/run.py` (under
`.bench_out/<workload>-s<seed>-t<trace>/`).  Every op runs in process
through `cli.run` and `cli.render_machine`, as in the benchmark; the two
cone caches (`cones.faces`, `cones.intersect`, the only caches in `src/`)
are cleared before each document, as the benchmark's per-document forks
start empty, and a `split` document feeds the commands after it.  Prints,
for one pass: the calls of `cones.extreme_rays` with the inequality rows
and equalities fed to them, the calls of `cones.cone_from_generators`
(one per document cone and one per maximal cone of a mapped fan; the Cox
lift writes its cones down), the uncached `cones.faces` and
`cones.intersect` calls, and the calls of `lattice.smith_normal_form` and
`lattice._bareiss`; then the modules that `import horofan.cli` adds to a
fresh interpreter (a subprocess importing the same `horofan`), which every
command loads before its first op.  The counts do not depend on the machine.
"""

import json
import os
import subprocess
import sys
from collections import Counter

from horofan import cli, cones, document, lattice

CACHES = [cones.faces, cones.intersect]


def counting(counts: Counter) -> None:
    """Wrap the counted functions in their modules."""
    extreme_rays = cones.extreme_rays

    def counted_extreme_rays(rows, k, eqs=()):
        counts["extreme_rays calls"] += 1
        counts["extreme_rays rows"] += len(rows)
        counts["extreme_rays eqs"] += len(eqs)
        return extreme_rays(rows, k, eqs)
    cones.extreme_rays = counted_extreme_rays

    for module, name, key in ((cones, "cone_from_generators",
                               "cone_from_generators calls"),
                              (lattice, "smith_normal_form", "SNF calls"),
                              (lattice, "_bareiss", "_bareiss calls")):
        def counted(*args, fn=getattr(module, name), key=key, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        setattr(module, name, counted)


def run_op(text: str, command: str) -> dict:
    name, *opts = command.split(" ")
    kwargs = {}
    if name == "local":
        kwargs["cone_index"] = int(opts[1])
    elif name == "decolour":
        kwargs["keep"] = [c for c in opts[1].split(",") if c]
    report = cli.run(document.parse(text), name, **kwargs)
    cli.render_machine(report)
    return report


_NEW_MODULES = """
import sys
before = set(sys.modules)
import horofan.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def cli_modules() -> list[str]:
    """The modules `import horofan.cli` loads, counted in a fresh process."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _NEW_MODULES], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as fh:
        blocks = json.load(fh)
    counts: Counter = Counter()
    counting(counts)
    ops = 0
    for block in blocks:
        for doc in block:
            for cache in CACHES:
                cache.cache_clear()
            text = doc["text"]
            for command in doc["commands"]:
                report = run_op(text, command)
                if command.split(" ")[0] == "split":
                    text = json.dumps(report["document"], sort_keys=True)
                ops += 1
            counts["faces uncached"] += cones.faces.cache_info().misses
            counts["intersect uncached"] += cones.intersect.cache_info().misses
    print(f"ops per pass: {ops}")
    for key in ("extreme_rays calls", "extreme_rays rows", "extreme_rays eqs",
                "cone_from_generators calls", "faces uncached",
                "intersect uncached", "SNF calls",
                "_bareiss calls"):
        print(f"{key}: {counts[key]}")
    modules = cli_modules()
    own = sum(m.split(".")[0] == "horofan" for m in modules)
    print(f"modules imported by horofan.cli: {len(modules)} "
          f"({own} horofan, {len(modules) - own} stdlib)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

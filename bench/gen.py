"""Seeded input generation for the benchmark, run in its own process.

    python bench/gen.py --workload NAME --seed N --blocks K --out FILE

Writes a JSON list of blocks; each block is a list of documents, and each
document is a dict with the fan document text (`text`), the commands to run
on it in order (`commands`), its input properties (`props`) and the key of
its expected invariants in data/expected.json (`expect`).

Every document is a fixed base fan in coordinates drawn from the seed: a
random unimodular change of coordinates.
Verdicts, cone counts, class groups and split ranks do not depend on the
coordinates, so every seed's outputs are checked against the base fan's,
and the work per document barely depends on the seed.  Survey base fans
were sampled once with horofan.sampling (see `survey_base`, run by
freeze.py) and are stored in data/survey_base.json: fans sampled afresh per
seed vary so much in cost that the median op moved by 40% between seeds.
Scale base cones are cyclic and built here from plain integers.
"""

from __future__ import annotations

import argparse
import json
import os
import random

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Survey strata: every block holds one document per (rank, shape) entry, so
# each block has the same mix: a quarter complete fans, a quarter with a
# one-dimensional torus factor (on top of the given rank), the rest plain.
SURVEY_STRATA = ([(r, "complete") for r in (1, 2, 2, 3)]
                 + [(r, "torus") for r in (1, 2, 3, 4)]
                 + [(r, "plain") for r in (1, 2, 3, 4, 1, 2, 3, 4)])
SURVEY_BASE_SEED = "survey-base"
SURVEY_BASE_BLOCKS = 1

# Caps on the input properties that drive `cox` cost: the number of cones of
# the fan (faces included) and the rank of the lifted lattice (colours plus
# colourless rays); colours are capped on the cheap diagram draw first.
# Uncapped, one rank-4 complete fan costs 10-25 s in `cox`.
MAX_COLOURS = 3
MAX_CELLS = 4
MAX_FAN_CONES = 27
MAX_LIFTED_RANK = 6
MAX_DRAWS = 500

# Scale shapes: (command, lattice rank, rays), a sweep over cone sizes.
# Classify work grows with the number of facets (2^facets face candidates;
# up to 14 facets here), cox work with the 2^rays faces of the lifted fan.
# One block holds each shape once.
SCALE_SHAPES = (
    [("classify", 3, n) for n in range(5, 15)]
    + [("classify", 4, n) for n in range(5, 10)]
    + [("classify", 5, 6)]
    + [("cox", 3, 4), ("cox", 3, 5), ("cox", 3, 6), ("cox", 4, 5)]
)

# The commands of the repository's golden walk-through; bench/run.py runs
# each once through the CLI and compares the bytes with data/golden_out/.
GOLDEN_OPS = [
    ("a3_colour_line.json", "classify"), ("a3_colour_line.json", "cox"),
    ("a3_colour_line.json", "local --cone 1"),
    ("a3_colour_line.json", "decolour --keep "),
    ("p2.json", "classify"), ("p2.json", "cox"),
    ("quadric_cone.json", "classify"), ("quadric_cone.json", "cox"),
    ("p112.json", "classify"), ("p112.json", "cox"),
    ("ray_with_torus_factor.json", "classify"),
    ("ray_with_torus_factor.json", "split"),
]


def random_unimodular(rng: random.Random, n: int, steps: int = 4) -> list[list[int]]:
    """Product of random elementary integer row operations."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        op = rng.randrange(3)
        if op == 0 and i != j:
            q = rng.choice((-1, 1))
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
        elif op == 1:
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-a for a in M[i]]
    return M


def transform(v: list[int], T: list[list[int]]) -> list[int]:
    """Row vector times matrix."""
    return [sum(v[k] * T[k][j] for k in range(len(v))) for j in range(len(T[0]))]


def in_random_coordinates(rng: random.Random, mapping: dict,
                          extra_rank: int = 0) -> dict:
    """The same fan, padded by `extra_rank` zero coordinates, in random
    unimodular coordinates.  Rays and cones are listed sorted, as horofan
    emits documents: the caches key on ordered pairs of cones, so listing
    order alone moved single ops by a factor of three between seeds."""
    n = mapping["lattice_rank"] + extra_rank
    T = random_unimodular(rng, n)
    move = lambda v: transform(list(v) + [0] * extra_rank, T)
    cones = [{"rays": sorted(move(r) for r in c["rays"]), "colours": c["colours"]}
             for c in mapping["cones"]]
    cones.sort(key=lambda c: (len(c["rays"]), c["rays"]))
    return dict(mapping, lattice_rank=n, cones=cones,
                colour_points={a: move(p) for a, p in mapping["colour_points"].items()})


def _document(rng: random.Random, base: dict, expect: str) -> dict:
    mapping = in_random_coordinates(rng, base["mapping"])
    return {"text": json.dumps(mapping, sort_keys=True),
            "commands": base["commands"], "props": base["props"],
            "expect": expect}


# -- survey ------------------------------------------------------------------

def _components(diagram) -> list[dict]:
    """Group components recovered from node names such as `A3.1`, `A1_2.1`."""
    out, seen = [], set()
    for node in diagram.nodes:
        prefix = node.split(".")[0]
        if prefix not in seen:
            seen.add(prefix)
            base = prefix.split("_")[0]
            out.append({"family": base[0], "rank": int(base[1:])})
    return out


def _fan_mapping(fan, diagram) -> dict:
    L = fan.lattice
    return {
        "group": {"components": _components(diagram),
                  "torus_rank": diagram.torus_rank},
        "parabolic": [n for n in diagram.nodes if n in diagram.parabolic],
        "lattice_rank": L.rank,
        "colour_points": {a: list(L.xi(a)) for a in L.colours},
        "cones": [{"rays": [list(r) for r in m.cone.rays],
                   "colours": sorted(m.colours, key=L.colour_order)}
                  for m in fan.maximal_cones()],
    }


def _survey_base_document(rng: random.Random, rank: int, shape: str) -> dict:
    """A random coloured fan in the given stratum, redrawn until it is
    within the caps."""
    from horofan import sampling as S
    max_h = 3 if rank == 4 else 4
    for _ in range(MAX_DRAWS):
        diagram = S.random_diagram(rng)
        if len(diagram.colours) > MAX_COLOURS:
            continue
        fan = S.random_coloured_fan(rng, diagram, rank,
                                    n_hyperplanes=rng.randint(1, max_h),
                                    max_cells=MAX_CELLS,
                                    complete=shape == "complete")
        lifted = len(fan.lattice.colours) + len(fan.non_coloured_rays())
        if len(fan.cones) <= MAX_FAN_CONES and lifted <= MAX_LIFTED_RANK:
            break
    else:
        raise RuntimeError(f"no rank-{rank} {shape} fan within the caps")
    torus = shape == "torus"
    mapping = _fan_mapping(fan, diagram)
    if torus:
        mapping = in_random_coordinates(rng, mapping, extra_rank=1)
    maximal = fan.maximal_cones()
    return {
        "mapping": mapping,
        "commands": (["classify", "split", "cox", "decolour --keep "] if torus
                     else ["classify", "cox", "decolour --keep "]),
        "props": {
            "stratum": f"{shape}-r{rank}",
            "lattice_rank": mapping["lattice_rank"],
            "cones": len(maximal),
            "fan_cones": len(fan.cones),
            "max_rays": max(len(m.cone.rays) for m in maximal),
            "max_facets": max(len(m.cone.facet_normals) for m in maximal),
            "colours": len(fan.lattice.colours),
            "lifted_rank": lifted,
            "torus_factor": torus,
        },
    }


def survey_base() -> list[list[dict]]:
    """The survey base fans, sampled with horofan.sampling: one block per
    pass over the strata.  Run by freeze.py; the result is data/survey_base.json."""
    rng = random.Random(SURVEY_BASE_SEED)
    return [[_survey_base_document(rng, r, s) for r, s in SURVEY_STRATA]
            for _ in range(SURVEY_BASE_BLOCKS)]


def _load_survey_base() -> list[list[dict]]:
    with open(os.path.join(DATA, "survey_base.json"), encoding="utf-8") as fh:
        return json.load(fh)


def survey_blocks(rng: random.Random, n_blocks: int) -> list[list[dict]]:
    return [[_document(rng, base, f"survey/b{b}.d{d}")
             for d, base in enumerate(base_block)]
            for b, base_block in enumerate(_load_survey_base()[:n_blocks])]


# -- scale -------------------------------------------------------------------

def cyclic_rays(rank: int, n_rays: int) -> list[list[int]]:
    """Rays (1, t, t^2, ...) for t = 0 .. n_rays-1: a cone over a cyclic polytope."""
    return [[t ** k for k in range(rank)] for t in range(n_rays)]


def scale_base(command: str, rank: int, n_rays: int) -> dict:
    return {
        "mapping": {"group": {"components": [], "torus_rank": rank},
                    "parabolic": [], "lattice_rank": rank, "colour_points": {},
                    "cones": [{"rays": cyclic_rays(rank, n_rays), "colours": []}]},
        "commands": [command],
        "props": {"lattice_rank": rank, "cones": 1, "max_rays": n_rays,
                  "colours": 0, "torus_factor": False},
    }


def scale_blocks(rng: random.Random, n_blocks: int) -> list[list[dict]]:
    return [[_document(rng, scale_base(*s), "scale/{}-r{}-n{}".format(*s))
             for s in SCALE_SHAPES]
            for _ in range(n_blocks)]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--blocks", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    rng = random.Random(f"{a.workload}:{a.seed}")
    make = {"survey": survey_blocks, "scale": scale_blocks}
    with open(a.out, "w", encoding="utf-8") as fh:
        json.dump(make[a.workload](rng, a.blocks), fh)


if __name__ == "__main__":
    main()

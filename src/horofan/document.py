"""Fan documents: the JSON input format and its binding to the library types.

A document describes a group (diagram components plus a central torus rank),
a parabolic subset, a coloured lattice, and a list of coloured cones:

    {
      "group": {"components": [{"family": "A", "rank": 3}], "torus_rank": 0},
      "parabolic": ["A3.1", "A3.3"],
      "lattice_rank": 1,
      "colour_points": {"A3.2": [1]},
      "cones": [{"rays": [[1]], "colours": ["A3.2"]}]
    }

Node identifiers are "<prefix>.<index>" with indices in the Bourbaki
numbering of the component.  The prefix of a component is family+rank
("A3"); if several components share family and rank the later ones get
"_2", "_3", ... suffixes ("A1", "A1_2"); see `dynkin.node_names`.
`colour_points` must name every node outside the parabolic set exactly once.

`parse` performs schema and identifier validation only and returns the
canonical mapping: the JSON value that `--format machine` writes for a
document, with each family in upper case, `parabolic` and `colour_points`
in diagram order, cones as {"rays", "colours"}, and every array a list, so
`parse(t) == json.loads(t)` for canonical text `t`.  `build` constructs the
diagram, lattice and validated fan and may raise validation errors.
`parse` also refuses a lattice rank above MAX_LATTICE_RANK and a component
rank above MAX_COMPONENT_RANK, so that a short document cannot ask for
work quadratic in a huge rank.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from . import cones as pc
from . import dynkin as dk
from .errors import DimensionMismatch, ParseError, UnresolvedIdentifier
from .fans import ColouredCone, ColouredFan, ColouredLattice, validate_fan

MAX_LATTICE_RANK = 64
MAX_COMPONENT_RANK = 64


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing key {key!r}")
    val = obj[key]
    if kind is int and isinstance(val, bool) or not isinstance(val, kind):
        raise ParseError(f"{where}: {key!r} must be of type {kind.__name__}")
    return val


def _int_vector(raw, length, where) -> list[int]:
    if not isinstance(raw, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in raw):
        raise ParseError(f"{where}: expected a list of integers")
    if len(raw) != length:
        raise DimensionMismatch(
            f"{where}: vector of length {len(raw)}, lattice rank is {length}")
    return raw


def parse(text: str) -> dict:
    """Parse and schema-check a document; identifiers are resolved here."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:
        # integers beyond Python's int-string limit, or nesting too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object")

    group = _expect(raw, "group", dict, "document")
    comp_list = _expect(group, "components", list, "group")
    torus_rank = _expect(group, "torus_rank", int, "group")
    if torus_rank < 0:
        raise ParseError("group: torus_rank must be nonnegative")
    pairs = []
    for i, c in enumerate(comp_list):
        fam = _expect(c, "family", str, f"group.components[{i}]").upper()
        rank = _expect(c, "rank", int, f"group.components[{i}]")
        if fam not in dk.FAMILIES:
            raise ParseError(f"group.components[{i}]: unknown family {fam!r}")
        if rank < 1:
            raise ParseError(f"group.components[{i}]: rank must be positive")
        if rank > MAX_COMPONENT_RANK:
            raise ParseError(f"group.components[{i}]: rank {rank} exceeds the "
                             f"limit {MAX_COMPONENT_RANK}")
        pairs.append((fam, rank))

    nodes = dk.node_names(pairs)
    node_set = set(nodes)

    parabolic = _expect(raw, "parabolic", list, "document")
    for n in parabolic:
        if not isinstance(n, str):
            raise ParseError(f"parabolic: entry {n!r} is not a node name")
        if n not in node_set:
            raise UnresolvedIdentifier(f"parabolic: unknown node {n!r}")
    if len(set(parabolic)) != len(parabolic):
        raise ParseError("parabolic: duplicate node")
    parabolic_set = set(parabolic)
    colours = [n for n in nodes if n not in parabolic_set]
    colour_set = set(colours)

    lattice_rank = _expect(raw, "lattice_rank", int, "document")
    if lattice_rank < 0:
        raise ParseError("lattice_rank must be nonnegative")
    if lattice_rank > MAX_LATTICE_RANK:
        raise ParseError(f"lattice_rank {lattice_rank} exceeds the limit "
                         f"{MAX_LATTICE_RANK}")

    points_raw = _expect(raw, "colour_points", dict, "document")
    for name in points_raw:
        if name not in colour_set:
            raise UnresolvedIdentifier(f"colour_points: {name!r} is not a colour")
    missing = [c for c in colours if c not in points_raw]
    if missing:
        raise UnresolvedIdentifier(f"colour_points: missing {missing}")
    colour_points = {
        c: _int_vector(points_raw[c], lattice_rank, f"colour_points[{c!r}]")
        for c in colours}

    cones_raw = _expect(raw, "cones", list, "document")
    cones = []
    for i, c in enumerate(cones_raw):
        rays_raw = _expect(c, "rays", list, f"cones[{i}]")
        rays = [_int_vector(r, lattice_rank, f"cones[{i}].rays[{j}]")
                for j, r in enumerate(rays_raw)]
        cols_raw = _expect(c, "colours", list, f"cones[{i}]")
        for a in cols_raw:
            if not isinstance(a, str) or a not in colour_set:  # a list is unhashable
                raise UnresolvedIdentifier(f"cones[{i}]: unknown colour {a!r}")
        cones.append({"rays": rays, "colours": cols_raw})

    return {
        "group": {"components": [{"family": f, "rank": r} for f, r in pairs],
                  "torus_rank": torus_rank},
        "parabolic": [n for n in nodes if n in parabolic_set],
        "lattice_rank": lattice_rank,
        "colour_points": colour_points,
        "cones": cones,
    }


_LITERALS = {None: "null", True: "true", False: "false"}
_JSON_TYPES = (str, int, list, tuple, dict)  # what a subclass encodes as


def canonical_json(obj) -> str:
    """What `json.dumps(obj, sort_keys=True)` writes with an indent of 2, which
    CPython encodes in pure Python.  Takes str, int, bool, None, lists, tuples
    and str-keyed dicts, subclasses as `json.dumps` takes them; anything else,
    a float too, is a TypeError.  Each list of ints is encoded once per indent."""
    int_lists: dict[tuple, str] = {}  # a fan's rays recur in its faces' entries

    def encode(obj, newline: str) -> str:
        kind = type(obj)
        if kind is bool or obj is None:
            return _LITERALS[obj]
        if kind not in _JSON_TYPES:
            kind = next((t for t in _JSON_TYPES if isinstance(obj, t)), kind)
        if kind is str:
            return encode_basestring_ascii(obj)
        if kind is int:
            return int.__repr__(obj)
        inner = newline + "  "
        if kind is list or kind is tuple:
            # `type` skips bools; a list of lists or dicts fails at its head
            if obj and type(obj[0]) is int and all(type(x) is int for x in obj):
                key = (tuple(obj), inner)
                if key not in int_lists:
                    int_lists[key] = "[" + inner + ("," + inner).join(
                        map(int.__repr__, obj)) + newline + "]"
                return int_lists[key]
            items = [encode(x, inner) for x in obj]
            brackets = "[]"
        elif kind is dict:  # a key that is not a str fails to encode
            items = [encode_basestring_ascii(k) + ": " + (
                int.__repr__(v) if type(v) is int else
                _LITERALS[v] if type(v) is bool else encode(v, inner))
                for k in sorted(obj) for v in (obj[k],)]
            brackets = "{}"
        else:
            raise TypeError(f"cannot encode {type(obj).__name__} as canonical JSON")
        if not items:
            return brackets
        return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]

    return encode(obj, "\n")


def build(doc: dict) -> tuple[dk.DynkinData, ColouredLattice, ColouredFan]:
    """Construct and validate the diagram, lattice and fan of a parsed document."""
    group = doc["group"]
    pairs = [(c["family"], c["rank"]) for c in group["components"]]
    specs = [(*pair, prefix) for pair, prefix in zip(pairs, dk.component_prefixes(pairs))]
    diagram = dk.standard_diagram(specs, group["torus_rank"], doc["parabolic"])
    rank = doc["lattice_rank"]
    colours = diagram.colours
    lattice_ = ColouredLattice(rank, colours,
                               tuple(doc["colour_points"][a] for a in colours))
    members = [ColouredCone(pc.cone_from_generators(c["rays"], rank), c["colours"])
               for c in doc["cones"]]
    return diagram, lattice_, validate_fan(lattice_, members)


def cone_entry(sc: ColouredCone, L: ColouredLattice) -> dict:
    """A coloured cone as a document lists it: its rays, and its colours in
    diagram order."""
    return {"rays": [list(r) for r in sc.cone.rays],
            "colours": sorted(sc.colours, key=L.colour_order)}


def document_for_fan(doc: dict, fan: ColouredFan) -> dict:
    """The document of `fan` with the group data of `doc`, as `parse` returns it.

    Used to re-emit the results of `decolour` and `split` in a form the
    tool accepts back.  Only the maximal cones are listed.
    """
    L = fan.lattice
    return {
        "group": doc["group"],
        "parabolic": doc["parabolic"],
        "lattice_rank": L.rank,
        "colour_points": {a: list(p) for a, p in zip(L.colours, L.colour_points)},
        "cones": [cone_entry(m, L) for m in fan.maximal_cones()],
    }

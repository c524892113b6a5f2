import json
import pathlib
import time
from collections import OrderedDict, namedtuple
from enum import IntEnum

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from horofan import classification as cl
from horofan import cli
from horofan import document as doc
from horofan import dynkin as dk
from horofan.errors import (DimensionMismatch, ParseError,
                            UnresolvedIdentifier)

GOLDENS = pathlib.Path(__file__).parent.parent / "goldens"
GOLDEN_NAMES = sorted(p.name for p in GOLDENS.glob("*.json"))


def load(name):
    return (GOLDENS / name).read_text()


def test_parse_golden():
    d = doc.parse(load("a3_colour_line.json"))
    assert d["group"]["components"] == [{"family": "A", "rank": 3}]
    assert d["parabolic"] == ["A3.1", "A3.3"]
    assert d["lattice_rank"] == 1
    assert d["colour_points"] == {"A3.2": [1]}
    assert d["cones"] == [{"rays": [[1]], "colours": ["A3.2"]}]


def test_emitted_documents_are_fixed_points():
    # the documents `split` and `decolour` emit parse back to themselves
    for name in GOLDEN_NAMES:
        d = doc.parse(load(name))
        for command in ("split", "decolour"):
            emitted = cli.run(d, command)["document"]
            assert doc.parse(cli.render_machine(emitted)) == emitted


def test_parse_all_goldens_build():
    for name in ("a3_colour_line.json", "p2.json", "quadric_cone.json",
                 "p112.json", "ray_with_torus_factor.json"):
        diagram, lattice_, fan = doc.build(doc.parse(load(name)))
        assert fan.cones  # at least the origin


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        doc.parse("{not json")
    assert err.value.line == 1
    assert err.value.column is not None


def test_wrong_vector_length():
    raw = json.loads(load("a3_colour_line.json"))
    raw["colour_points"]["A3.2"] = [1, 0]
    with pytest.raises(DimensionMismatch):
        doc.parse(json.dumps(raw))
    raw = json.loads(load("p2.json"))
    raw["cones"][0]["rays"][0] = [1]
    with pytest.raises(DimensionMismatch):
        doc.parse(json.dumps(raw))


def test_unresolved_identifiers():
    raw = json.loads(load("a3_colour_line.json"))
    for colour in ("A3.9", [1], {"A3.2": 1}):  # colour names are looked up in a set
        raw["cones"][0]["colours"] = [colour]
        with pytest.raises(UnresolvedIdentifier):
            doc.parse(json.dumps(raw))

    raw = json.loads(load("a3_colour_line.json"))
    raw["parabolic"] = ["A3.1", "B9.1"]
    with pytest.raises(UnresolvedIdentifier):
        doc.parse(json.dumps(raw))

    raw = json.loads(load("a3_colour_line.json"))
    del raw["colour_points"]["A3.2"]
    with pytest.raises(UnresolvedIdentifier):
        doc.parse(json.dumps(raw))

    # a colour point for a parabolic node is also unresolved
    raw = json.loads(load("a3_colour_line.json"))
    raw["colour_points"]["A3.1"] = [1]
    with pytest.raises(UnresolvedIdentifier):
        doc.parse(json.dumps(raw))


def test_missing_key():
    with pytest.raises(ParseError):
        doc.parse("{}")


def test_round_trip():
    # a parsed document is the JSON value that `--format machine` writes
    for name in GOLDEN_NAMES:
        d = doc.parse(load(name))
        text = cli.render_machine(d)
        assert doc.parse(text) == d == json.loads(text)


def test_render_is_byte_stable():
    d = doc.parse(load("p2.json"))
    text = cli.render_machine(d)
    assert text == cli.render_machine(doc.parse(text))


def test_duplicate_component_prefixes():
    text = json.dumps({
        "group": {"components": [{"family": "A", "rank": 1},
                                 {"family": "A", "rank": 1}],
                  "torus_rank": 0},
        "parabolic": ["A1.1"],
        "lattice_rank": 1,
        "colour_points": {"A1_2.1": [1]},
        "cones": [{"rays": [[1]], "colours": ["A1_2.1"]}],
    })
    d = doc.parse(text)
    diagram, lattice_, fan = doc.build(d)
    assert set(diagram.nodes) == {"A1.1", "A1_2.1"}
    assert lattice_.colours == ("A1_2.1",)


def _every_colour_on_one_ray(components: int, rank: int = 64) -> str:
    """A document of A_rank components whose colours all lie on one ray."""
    nodes = dk.node_names([("A", rank)] * components)
    return json.dumps({
        "group": {"components": [{"family": "A", "rank": rank}] * components,
                  "torus_rank": 0},
        "parabolic": [], "lattice_rank": 1,
        "colour_points": {a: [1] for a in nodes},
        "cones": [{"rays": [[1]], "colours": nodes}]})


def test_parse_time_is_linear_in_the_colours():
    # colour names are checked against a set: 800 A64 components, 51,200
    # colours each named once in colour_points and once on a cone, parse in
    # a fraction of a second; checked against the list, the time grew with
    # the square of the colours
    text = _every_colour_on_one_ray(800)
    start = time.perf_counter()
    d = doc.parse(text)
    assert time.perf_counter() - start < 5
    assert len(d["colour_points"]) == len(d["cones"][0]["colours"]) == 51200


def test_build_and_classify_time_is_linear_in_the_colours():
    # a lattice looks colours up in one map: 400 A64 components, 25,600
    # colours on one ray, build and classify in a fraction of a second;
    # with a search of the colour tuple per lookup they took 30 s (2-core VM)
    d = doc.parse(_every_colour_on_one_ray(400))
    start = time.perf_counter()
    diagram, _, fan = doc.build(d)
    cl.classify(fan, diagram)
    assert time.perf_counter() - start < 5
    assert len(fan.cones[-1].colours) == 25600


def test_colour_condition_is_linear_in_the_colours():
    # 25,600 A1 components, no parabolic nodes: every colour on the ray
    # passes the diagram condition, so each is checked (above, the first A64
    # colour fails and ends the check).  A diagram builds its neighbour map
    # once and a colour's check reads only its own component; rebuilding the
    # map and re-checking the cone's colour set per colour took 7.4 s
    # (classify) and 7.2 s (local) at 4,000 colours (2-core VM), growing with
    # the square
    d = doc.parse(_every_colour_on_one_ray(25600, rank=1))
    start = time.perf_counter()
    diagram, _, fan = doc.build(d)
    verdict = cl.classify(fan, diagram)
    assert dk.is_projective_space_product(diagram)
    assert time.perf_counter() - start < 5
    assert verdict.cones[1].vivid and len(fan.cones[1].colours) == 25600
    start = time.perf_counter()
    report = cli.run(d, "local", cone_index=1)
    assert time.perf_counter() - start < 5
    assert report["vivid"] and len(report["restricted_colours"]) == 25600


def test_build_classifies_golden():
    diagram, _, fan = doc.build(doc.parse(load("a3_colour_line.json")))
    v = cl.classify(fan, diagram)
    assert v.factorial and not v.smooth and not v.quotient_singularities


def test_build_recognizes_no_diagram():
    # a document names each component by family and rank, so `build`
    # assembles the standard diagram; `horofan.dynkin` has no type
    # recognizer, so no path through the library can search for a type
    for name in ("TypeLabel", "validate_diagram", "components", "_template",
                 "component_labels", "recognize_type", "_edge_lookup"):
        assert not hasattr(dk, name), name
    for name in ("a3_colour_line.json", "p2.json", "ray_with_torus_factor.json"):
        diagram, lattice_, _ = doc.build(doc.parse(load(name)))
        assert diagram.colours == lattice_.colours


_STRINGS = st.one_of(
    st.text(max_size=6),
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t a\xe9\u2028\u4e2d\U0001f600'),
            max_size=6))
_INTS = st.one_of(st.integers(-1000, 1000), st.integers(2**64, 2**200),
                  st.integers(-2**200, -2**64))
_REPORTS = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, _STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=24)


@given(_REPORTS)
@settings(max_examples=300, deadline=None)
@seed(47)
@example({"\xe9\u2028\"\\\x00": [[], {}, (), (-2**65, 2**64 + 1), True, False, None],
          "": {"b": 0, "a": [1]}})
def test_canonical_json_matches_json_dumps(report):
    assert doc.canonical_json(report) == json.dumps(report, sort_keys=True, indent=2)


class _Rank(IntEnum):
    TWO = 2


class _Name(str):
    pass


_Pair = namedtuple("_Pair", "rays colours")


def test_canonical_json_encodes_subclasses_as_json_dumps_does():
    value = OrderedDict([
        ("z", _Rank.TWO),
        (_Name("a\u2028"), [_Name("x"), _Pair([(1, -2), [3, 4]], [_Rank.TWO, True]),
                            [_Rank.TWO, 1], (_Rank.TWO,)]),
        ("m", OrderedDict([("b", None), ("a", _Pair(3, _Name("")))])),
    ])
    assert doc.canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_canonical_json_int_vector_at_several_depths():
    # each list of ints is encoded once per indent; the same ints recur
    v = [3, -1, 2**70, 0]
    value = {"a": v, "b": [v, tuple(v), [[v, tuple(v)]]],
             "c": {"d": tuple(v), "e": [tuple(v), v, [3, -1]]}, "f": [v]}
    assert doc.canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_canonical_json_bools_are_no_int_vector():
    # True == 1 and hash(True) == hash(1), yet [True, 1, 0] is no list of ints
    for value in ([True, 1, 0], [[1, 1, 0], [True, 1, 0], (1, True, False), (1, 1, 0)],
                  {"a": [1, 0], "b": [True, False], "c": [[False, 0], [0, 0]]}):
        assert doc.canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_canonical_json_refuses_floats_and_non_str_keys():
    for bad in (1.5, [0.0], {"a": 2.0}, {1: "a"}, {"a": {2: 3}}, {"a": 1, 2: 3}):
        with pytest.raises(TypeError):
            doc.canonical_json(bad)

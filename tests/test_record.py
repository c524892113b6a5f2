"""The value types against frozen standard-library data-class twins.

`horofan.record.Record` replaces `@dataclass(frozen=True)` in `src/`; here
`dataclasses` is the oracle.  Each record on sample values must print,
compare and hash like a twin built with `make_dataclass(..., frozen=True)`
from the same fields and values, and keep the constructor, immutability and
`__post_init__` behaviour the library relies on.
"""

import dataclasses
import pathlib

import pytest

from horofan import cones, cox, dynkin, fans, lattice, local
from horofan import classification as cl
from horofan import document as docmod
from horofan.errors import DimensionMismatch, UnknownColour
from horofan.record import Record

import oracles

GOLDENS = pathlib.Path(__file__).parent.parent / "goldens"

RECORD_TYPES = [
    cones.Cone, fans.ColouredLattice, fans.ColouredCone, fans.ColouredFan,
    cl.ConeClassification, cl.Verdict, dynkin.DynkinEdge, dynkin.DynkinData,
    oracles.TypeLabel, cox.TorusSplit, cox.CoxData, cox.CoxConsistency,
    lattice.FGAbelianGroup, local.LocalModel,
]


# a rank-2 lattice under A2 x a torus, one colour on a two-dimensional cone
A2_COLOUR_IN_QUADRANT = """{
  "group": {"components": [{"family": "A", "rank": 2}], "torus_rank": 1},
  "parabolic": ["A2.2"],
  "lattice_rank": 2,
  "colour_points": {"A2.1": [1, 1]},
  "cones": [{"rays": [[1, 0], [0, 1]], "colours": ["A2.1"]}]
}"""


def _samples(text: str) -> dict[type, object]:
    """One record of every type, from the fan document `text`."""
    diagram, L, fan = docmod.build(docmod.parse(text))
    data = cox.cox_construct(fan)
    first = next(iter(oracles.components(diagram)))
    verdict = cl.classify(fan, diagram)
    found = [
        fan.cones[-1].cone, L, fan.cones[-1], fan, verdict.cones[-1], verdict,
        diagram.edges[0], diagram, oracles.recognize_type(diagram, first),
        cox.torus_split(fan), data,
        cox.cox_consistency(fan, diagram), data.class_group,
        local.affine_local(fan.cones[-1], L, diagram),
    ]
    return {type(r): r for r in found}


SAMPLES = [_samples((GOLDENS / "a3_colour_line.json").read_text()),
           _samples(A2_COLOUR_IN_QUADRANT)]


def _values(r) -> list:
    return [getattr(r, f) for f in type(r).__slots__]


def _twin(cls):
    return dataclasses.make_dataclass(
        cls.__name__, [(f, object) for f in cls.__slots__], frozen=True)


def test_every_type_is_sampled_twice_and_differs():
    assert len(set(RECORD_TYPES)) == 14
    for cls in RECORD_TYPES:
        a, b = (s[cls] for s in SAMPLES)
        assert type(a) is type(b) is cls
        assert a != b, cls.__name__


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_fields_in_annotation_order_stored_in_slots(cls):
    assert issubclass(cls, Record)
    assert cls.__slots__ == tuple(cls.__annotations__)
    assert not hasattr(SAMPLES[0][cls], "__dict__")


@pytest.mark.parametrize("cls", [c for c in RECORD_TYPES if c is not cones.Cone],
                         ids=lambda c: c.__name__)
def test_repr_eq_and_hash_agree_with_the_twin(cls):
    twin = _twin(cls)
    (a, b) = (s[cls] for s in SAMPLES)
    for r in (a, b):
        t = twin(*_values(r))
        assert repr(r) == repr(t)
        copy = cls(*_values(r))
        assert copy == r and not copy != r
        assert hash(copy) == hash(r) == hash(t)
    assert a != b and twin(*_values(a)) != twin(*_values(b))


def test_cone_keeps_its_rays_only_eq_hash_and_repr():
    c = cones.cone_from_generators([(1, 0), (0, 1)], 2)
    other = cones.Cone(2, c.rays, ((5, 0), (0, 5)), 2, ((0, 0),))
    assert other == c and hash(other) == hash(c)
    assert repr(c) == "Cone(rank=2, rays=[[0, 1], [1, 0]])"
    assert c != cones.Cone(3, c.rays, c.facet_normals, c.dim, c.equations)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_equal_only_within_the_type(cls):
    r = SAMPLES[0][cls]
    values = _values(r)
    lookalike = type(cls.__name__, (Record,),
                     {"__annotations__": dict.fromkeys(cls.__slots__, "object")})
    assert r != lookalike(*values) and lookalike(*values) != r
    assert r != tuple(values) and r != _twin(cls)(*values)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_immutable(cls):
    r = SAMPLES[0][cls]
    for f in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(r, f, None)
        with pytest.raises(AttributeError):
            delattr(r, f)
    with pytest.raises(AttributeError):
        r.not_a_field = 1
    assert _values(r) == _values(SAMPLES[0][cls])


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_missing_or_extra_argument_is_a_type_error(cls):
    values = _values(SAMPLES[0][cls])
    assert cls(*values) == cls(**dict(zip(cls.__slots__, values)))
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:1], not_a_field=None)


def test_keywords_and_defaults():
    e = dynkin.DynkinEdge("a", "b")
    assert (e.multiplicity, e.long) == (1, None)
    assert e == dynkin.DynkinEdge(b="b", a="a", multiplicity=1)
    assert dynkin.DynkinEdge("a", "b", 2, long="a").long == "a"
    d = dynkin.DynkinData(("a", "b"), (e,))
    assert d.torus_rank == 0 and d.parabolic == frozenset()
    assert d.colours == ("a", "b")
    g = lattice.FGAbelianGroup(2)
    assert g.torsion == () and str(g) == "Z^2"
    assert lattice.FGAbelianGroup(torsion=(2, 4), free_rank=0).torsion == (2, 4)


def test_post_init_checks_still_raise():
    with pytest.raises(ValueError, match="negative free rank"):
        lattice.FGAbelianGroup(-1)
    with pytest.raises(ValueError, match="divisibility chain"):
        lattice.FGAbelianGroup(0, (2, 3))
    with pytest.raises(ValueError, match=">= 2"):
        lattice.FGAbelianGroup(0, (1,))
    with pytest.raises(UnknownColour):
        fans.ColouredLattice(2, ("a", "a"), ((1, 0), (0, 1)))
    with pytest.raises(DimensionMismatch):
        fans.ColouredLattice(2, ("a",), ((1, 0, 0),))
    with pytest.raises(DimensionMismatch):
        fans.ColouredLattice(2, ("a", "b"), ((1, 0),))


def test_post_init_coercions_hold():
    L = fans.ColouredLattice(2, ["a"], [[1, 0]])
    assert L.colours == ("a",) and L.colour_points == ((1, 0),)
    c = cones.cone_from_generators([(1, 0), (0, 1)], 2)
    m = fans.ColouredCone(c, ["a", "a"])
    assert type(m.colours) is frozenset and m.colours == {"a"}
    fan = SAMPLES[0][fans.ColouredFan]
    shuffled = fans.ColouredFan(fan.lattice, tuple(reversed(fan.cones)))
    assert shuffled.cones == fan.cones and shuffled == fan


def test_canonical_json_refuses_records():
    for r in SAMPLES[0].values():
        with pytest.raises(TypeError):
            docmod.canonical_json(r)
        with pytest.raises(TypeError):
            docmod.canonical_json({"value": [r]})


import importlib
import pkgutil
import random
from itertools import combinations, product

import pytest

from horofan import dynkin as dk
from horofan.document import MAX_COMPONENT_RANK
from horofan.errors import (BadParabolic, UnknownColour, UnknownDiagram,
                            UnknownNode, ValidationError)

from oracles import (BOURBAKI_PLATES, CARTAN_DETERMINANTS, BadEdge, _assemble,
                     cartan_matrix, component_labels, components, determinant,
                     example_A_rule, numbering_oracle, recognize_type,
                     template_matches, validate_diagram)


def diagram(spec_list, parabolic=(), torus_rank=0):
    return dk.standard_diagram(
        [(f, r, f"{f}{r}") for f, r in spec_list], torus_rank, parabolic)


def test_validate_path_is_A3():
    d = validate_diagram(["x", "y", "z"], [("x", "y"), ("y", "z")])
    t = recognize_type(d, d.nodes)
    assert (t.family, t.rank) == ("A", 3)


def test_validate_double_edge_pair():
    d = validate_diagram(["x", "y"], [dk.DynkinEdge("x", "y", 2, "x")])
    labels = component_labels(d, frozenset(d.nodes))
    assert {(l.family, l.rank) for l in labels} == {("B", 2), ("C", 2)}
    assert recognize_type(d, d.nodes).family == "B"


def test_validate_star_is_D4():
    d = validate_diagram(["c", "p", "q", "r"],
                         [("c", "p"), ("c", "q"), ("c", "r")])
    t = recognize_type(d, d.nodes)
    assert (t.family, t.rank) == ("D", 4)
    assert t.nodes_by_index[1] == "c"


def test_recognition_matches_template_oracle():
    rng = random.Random(11)
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                         ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4),
                         ("F", 4), ("G", 2)]:
        nodes, edges = dk.standard_component(family, rank, "n")
        # scramble the node presentation order
        perm = nodes[:]
        rng.shuffle(perm)
        d = validate_diagram(perm, edges)
        got = {(l.family, l.rank)
               for l in component_labels(d, frozenset(nodes))}
        assert got == template_matches(d, frozenset(nodes)), (family, rank)


def test_bad_diagrams_rejected():
    with pytest.raises(UnknownDiagram):  # triangle
        validate_diagram(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(UnknownDiagram):  # two forks
        validate_diagram(list("abcdefg"),
                         [("a", "b"), ("b", "c"), ("b", "d"), ("d", "e"),
                          ("e", "f"), ("e", "g")])
    with pytest.raises(BadEdge):
        validate_diagram(["a", "b"], [dk.DynkinEdge("a", "b", 4, "a")])
    with pytest.raises(BadEdge):
        validate_diagram(["a", "b"], [dk.DynkinEdge("a", "b", 1, "a")])
    with pytest.raises(BadEdge):
        validate_diagram(["a", "b"], [dk.DynkinEdge("a", "b", 2, None)])
    with pytest.raises(BadParabolic):
        validate_diagram(["a"], [], parabolic=["zz"])
    with pytest.raises(UnknownNode):
        validate_diagram(["a"], [("a", "b")])


def test_connected_component():
    d = diagram([("A", 3)])
    assert dk.connected_component(d, "A3.2") == frozenset(d.nodes)
    d2 = dk.standard_diagram([("A", 1, "u"), ("A", 1, "v")])
    assert dk.connected_component(d2, "u.1") == frozenset({"u.1"})
    d3 = dk.standard_diagram([("A", 2, "u"), ("A", 2, "v")])
    assert dk.connected_component(d3, "v.1") == frozenset({"v.1", "v.2"})
    with pytest.raises(UnknownNode):
        dk.connected_component(d, "missing")


def test_recognize_single_node_and_paths():
    d = diagram([("A", 1)])
    assert recognize_type(d, d.nodes).family == "A"
    for n in (2, 5, 8):
        d = diagram([("A", n)])
        t = recognize_type(d, d.nodes)
        assert (t.family, t.rank) == ("A", n)


def test_recognize_C3_far_end_first():
    # 3-node path, double edge at one end with the extreme root long
    d = validate_diagram(["p", "q", "r"],
                         [("p", "q"), dk.DynkinEdge("q", "r", 2, "r")])
    t = recognize_type(d, d.nodes)
    assert (t.family, t.rank) == ("C", 3)
    assert t.nodes_by_index == ("p", "q", "r")


def test_recognize_relabelling_invariance():
    rng = random.Random(5)
    for family, rank in [("A", 4), ("B", 3), ("D", 4), ("F", 4), ("E", 6)]:
        nodes, edges = dk.standard_component(family, rank, "n")
        names = [f"m{i}" for i in range(rank)]
        rng.shuffle(names)
        ren = dict(zip(nodes, names))
        new_edges = [dk.DynkinEdge(ren[e.a], ren[e.b], e.multiplicity,
                                   ren[e.long] if e.long else None)
                     for e in edges]
        d1 = validate_diagram(nodes, edges)
        d2 = validate_diagram(names, new_edges)
        t1 = recognize_type(d1, d1.nodes)
        t2 = recognize_type(d2, d2.nodes)
        assert (t1.family, t1.rank) == (t2.family, t2.rank)
        # the renamed labelling is among the valid labels of d2
        renamed = tuple(ren[v] for v in t1.nodes_by_index)
        labels2 = component_labels(d2, frozenset(d2.nodes))
        assert any(l.nodes_by_index == renamed and l.family == t1.family
                   for l in labels2)


def test_recognize_pin():
    d = validate_diagram(["x", "y"], [dk.DynkinEdge("x", "y", 2, "x")])
    # y is short: pinning it first forces family C
    assert recognize_type(d, d.nodes, first="y").family == "C"
    assert recognize_type(d, d.nodes, first="x").family == "B"
    a3 = diagram([("A", 3)])
    with pytest.raises(UnknownDiagram):
        recognize_type(a3, a3.nodes, first="A3.2")  # middle cannot be first
    with pytest.raises(UnknownNode):
        recognize_type(a3, a3.nodes, first="nope")


def test_vivid_examples():
    d = diagram([("A", 3)], parabolic=["A3.2", "A3.3"])
    assert dk.vivid_colour_ok(d, {"A3.1"}, "A3.1")

    d = diagram([("A", 3)], parabolic=["A3.1", "A3.3"])
    assert not dk.vivid_colour_ok(d, {"A3.2"}, "A3.2")

    d = diagram([("A", 2)])
    assert not dk.vivid_colour_ok(d, {"A2.1", "A2.2"}, "A2.1")

    # rank-2 double edge, I = {long}, F = {short}
    d = diagram([("B", 2)], parabolic=["B2.1"])  # B2.1 is the long root
    assert dk.vivid_colour_ok(d, {"B2.2"}, "B2.2")


def test_vivid_depends_only_on_component():
    d = dk.standard_diagram([("A", 3, "A3"), ("B", 2, "B2")],
                            parabolic=["A3.1", "A3.3", "B2.1"])
    # same verdict as in the isolated A3
    assert not dk.vivid_colour_ok(d, {"A3.2", "B2.2"}, "A3.2")
    assert not dk.vivid_colour_ok(d, {"A3.2"}, "A3.2")


def test_vivid_errors():
    d = diagram([("A", 3)], parabolic=["A3.2"])
    with pytest.raises(UnknownColour):
        dk.vivid_colour_ok(d, {"A3.1"}, "A3.2")  # parabolic node
    with pytest.raises(UnknownColour):
        dk.vivid_colour_ok(d, {"A3.1"}, "A3.3")  # not in F


def test_example_rule_small():
    for n in (3, 4, 5):
        names = [f"A{n}.{i}" for i in range(1, n + 1)]
        for bits in product((0, 1), repeat=n):
            I = {names[k] for k in range(n) if bits[k]}
            idx = {k + 1 for k in range(n) if bits[k]}
            d = diagram([("A", n)], parabolic=I)
            for i in range(1, n + 1):
                if names[i - 1] in I:
                    continue
                assert dk.vivid_colour_ok(d, {names[i - 1]}, names[i - 1]) \
                    == example_A_rule(n, idx, i)


def test_projective_space_product():
    assert dk.is_projective_space_product(diagram([("A", 2)], ["A2.2"]))
    assert not dk.is_projective_space_product(
        diagram([("A", 3)], ["A3.1", "A3.3"]))
    # I = S: a point, the empty product
    assert dk.is_projective_space_product(
        diagram([("A", 3)], ["A3.1", "A3.2", "A3.3"]))
    # C-series isotropic lines: Sp(2n)/P_1 is a projective space
    assert dk.is_projective_space_product(
        diagram([("C", 3)], ["C3.2", "C3.3"]))
    # B-series gives a quadric, not a projective space
    assert not dk.is_projective_space_product(
        diagram([("B", 3)], ["B3.2", "B3.3"]))


def test_torus_factors_are_inert():
    d0 = diagram([("A", 3)], parabolic=["A3.1", "A3.3"], torus_rank=0)
    d2 = diagram([("A", 3)], parabolic=["A3.1", "A3.3"], torus_rank=2)
    assert dk.vivid_colour_ok(d0, {"A3.2"}, "A3.2") \
        == dk.vivid_colour_ok(d2, {"A3.2"}, "A3.2")
    assert dk.is_projective_space_product(d0) == dk.is_projective_space_product(d2)


def _random_decorated_graph(rng, n):
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    # a random tree keeps most graphs connected; extra edges make cycles
    pairs = {(rng.randrange(j), j) for j in range(1, n) if rng.random() < 0.85}
    pairs |= {(i, j) for j in range(n) for i in range(j)
              if rng.random() < rng.choice((0.1, 0.2, 0.4))}
    edges = []
    for i, j in sorted(pairs):
        a, b = sorted((names[i], names[j]))
        m = rng.choices((1, 2, 3), (6, 2, 1))[0]
        edges.append(dk.DynkinEdge(a, b, m, rng.choice((a, b)) if m > 1 else None))
    return dk.DynkinData(tuple(names), tuple(sorted(edges, key=lambda e: (e.a, e.b))))


def test_numberings_match_permutation_oracle():
    # on every connected induced subdiagram, every label and no other is a
    # bijection onto a standard diagram
    rng = random.Random(29)
    found = {}
    for _ in range(400):
        d = _random_decorated_graph(rng, rng.randint(1, 5))
        for k in range(1, len(d.nodes) + 1):
            for sub in combinations(d.nodes, k):
                sub = frozenset(sub)
                try:
                    labels = component_labels(d, sub)
                except ValidationError:  # not connected
                    assert not numbering_oracle(d, sub)
                    continue
                assert {(l.family, l.rank, l.nodes_by_index) for l in labels} \
                    == numbering_oracle(d, sub)
                assert list(labels) == sorted(labels, key=lambda l: (l.family,
                                                                     l.nodes_by_index))
                for l in labels or [None]:
                    key = l and (l.family, l.rank)
                    found[key] = found.get(key, 0) + 1
    assert found[None] > 100  # cycles, and edges no standard diagram has
    assert {("B", 4), ("C", 5), ("D", 4), ("D", 5), ("F", 4), ("G", 2)} <= set(found)


def test_standard_diagram_matches_validated_diagram():
    # `standard_diagram` skips recognition; `validate_diagram` recognizes the
    # same graph, so the two must agree and every component must have a label
    rng = random.Random(31)
    singles = [[(f, r, f"{f}{r}")] for f in dk.FAMILIES for r in range(1, 9)
               if dk._STANDARD_RANKS[f](r)]
    repeated = [[("A", 1, "A1"), ("A", 1, "A1_2")],
                [("B", 3, "B3"), ("A", 1, "A1"), ("B", 3, "B3_2"), ("A", 1, "A1_2")],
                [("G", 2, "G2"), ("D", 4, "D4"), ("E", 6, "E6"), ("C", 2, "C2")]]
    assert len(singles) == 8 + 7 + 7 + 5 + 3 + 1 + 1
    for specs in singles + repeated:
        nodes, edges = [], []
        for spec in specs:
            ns, es = dk.standard_component(*spec)
            nodes += ns
            edges += es
        for _ in range(4):
            parabolic = [n for n in nodes if rng.random() < 0.5]
            t = rng.randint(0, 3)
            d = dk.standard_diagram(specs, t, parabolic)
            assert d == validate_diagram(nodes, edges, parabolic, t)
            assert all(component_labels(d, comp) for comp in components(d))
    with pytest.raises(BadParabolic):
        dk.standard_diagram([("A", 2, "A2")], parabolic=["A2.3"])
    with pytest.raises(ValidationError):
        dk.standard_diagram([("A", 1, "A1"), ("A", 1, "A1")])


def test_standard_diagram_matches_assemble_at_every_rank():
    # string order puts "A10.10" before "A10.9", so from rank 10 on the
    # endpoints of an edge are not in numbering order; `standard_component`
    # must list them in string order, as the oracle's checks normalize them
    rng = random.Random(43)
    compared = 0
    for f in dk.FAMILIES:
        for r in range(1, MAX_COMPONENT_RANK + 1):
            if not dk._STANDARD_RANKS[f](r):
                continue
            specs = [(f, r, f"{f}{r}"), ("A", 2, "X")]
            nodes, edges = [], []
            for spec in specs:
                ns, es = dk.standard_component(*spec)
                nodes += ns
                edges += es
            parabolic = [n for n in nodes if rng.random() < 0.5]
            t = rng.randint(0, 3)
            d = dk.standard_diagram(specs, t, parabolic)
            assert d == _assemble(nodes, edges, parabolic, t), (f, r)
            assert all(e.a < e.b for e in d.edges)
            compared += 1
    assert compared == 64 + 63 + 63 + 61 + 3 + 1 + 1


def _plate(nodes, edges):
    """A standard component's edges as (i, j, multiplicity, long root) on
    the node numbers, i < j."""
    number = {name: i for i, name in enumerate(nodes, 1)}
    return sorted((*sorted((number[e.a], number[e.b])), e.multiplicity,
                   number.get(e.long)) for e in edges)


def test_standard_components_are_the_bourbaki_plates():
    for f in dk.FAMILIES:
        for r in range(1, MAX_COMPONENT_RANK + 1):
            plate = BOURBAKI_PLATES[f](r)
            if plate is None:
                with pytest.raises(UnknownDiagram):
                    dk.standard_component(f, r, "X")
                continue
            nodes, edges = dk.standard_component(f, r, "X")
            assert nodes == [f"X.{i}" for i in range(1, r + 1)]
            assert _plate(nodes, edges) == sorted(plate), (f, r)


def test_cartan_determinants():
    # read off the library's components; the determinant cannot tell B_n
    # from C_n, which the plates do
    for f in dk.FAMILIES:
        for r in range(1, MAX_COMPONENT_RANK + 1):
            if BOURBAKI_PLATES[f](r) is None:
                continue
            nodes, edges = dk.standard_component(f, r, "X")
            det = determinant(cartan_matrix(r, _plate(nodes, edges)))
            assert det == CARTAN_DETERMINANTS[f](r), (f, r)


def test_standard_diagram_default_torus_rank_is_zero():
    assert dk.standard_diagram([("A", 2, "A2")]).torus_rank == 0
    assert dk.standard_diagram([]).torus_rank == 0


def _recognized_verdict(d, F, alpha):
    """`vivid_colour_ok` with its chain clause decided by type recognition:
    some label of family A or C numbers alpha first.  Also returns the
    labels of I_alpha + alpha, when alpha touches one parabolic component."""
    if next(c for c in components(d) if alpha in c) & F != {alpha}:
        return False, ()
    neighbours = {w for e in d.edges if alpha in e.ends() for w in e.ends()}
    inner = dk.DynkinData(tuple(n for n in d.nodes if n in d.parabolic),
                          tuple(e for e in d.edges if e.ends() <= d.parabolic))
    touching = [c for c in components(inner) if c & neighbours]
    if len(touching) != 1:
        return not touching, ()
    labels = component_labels(d, touching[0] | {alpha})
    return any(l.family in ("A", "C") and l.nodes_by_index[0] == alpha
               for l in labels), labels


def test_chain_walk_matches_recognition():
    # standard diagrams beside an A1, B2 or A3, and arbitrary decorated
    # graphs (cycles, triple edges, wrong long ends), with random parabolic
    # sets; F = {alpha} and F = every colour
    rng = random.Random(37)
    singles = [(f, r) for f in dk.FAMILIES for r in range(1, 9)
               if dk._STANDARD_RANKS[f](r)]
    cases = []
    for _ in range(1000):
        specs = [(*rng.choice(singles), "X")]
        extra = rng.choice((None, ("A", 1), ("B", 2), ("A", 3)))
        if extra:
            specs.append((*extra, "Y"))
        nodes = [v for spec in specs for v in dk.standard_component(*spec)[0]]
        p = rng.random()
        cases.append(dk.standard_diagram(
            specs, parabolic=[v for v in nodes if rng.random() < p]))
    for _ in range(1000):
        d = _random_decorated_graph(rng, rng.randint(1, 7))
        p = rng.random()
        cases.append(dk.DynkinData(d.nodes, d.edges, 0,
                                   frozenset(v for v in d.nodes if rng.random() < p)))
    verdicts, reached = set(), set()
    for d in cases:
        for alpha in d.colours:
            for F in ({alpha}, set(d.colours)):
                want, labels = _recognized_verdict(d, F, alpha)
                assert dk.vivid_colour_ok(d, F, alpha) == want, (d, F, alpha)
                verdicts.add(want)
                reached |= {(l.family, l.rank, l.nodes_by_index[0] == alpha)
                            for l in labels}
    assert verdicts == {True, False}
    # C2 with alpha short, B2 with alpha long, G2, and a D-type fork
    assert {("C", 2, True), ("B", 2, True)} <= reached
    assert {"G", "D"} <= {family for family, _, _ in reached}


def test_chain_walk_must_visit_every_node():
    # vivid_colour_ok only asks about connected node sets; on others the
    # walk still answers no, after a dead end or a final double edge
    d = dk.standard_diagram([("A", 2, "A2"), ("C", 2, "C2"), ("A", 1, "A1")])
    assert dk._chain_from(d, "A2.1", frozenset({"A2.1", "A2.2"}))
    assert not dk._chain_from(d, "A2.1", frozenset({"A2.1", "A2.2", "A1.1"}))
    assert dk._chain_from(d, "C2.1", frozenset({"C2.1", "C2.2"}))
    assert not dk._chain_from(d, "C2.1", frozenset({"C2.1", "C2.2", "A1.1"}))
    assert not dk._chain_from(d, "C2.2", frozenset({"C2.1", "C2.2"}))


MOVED_TO_ORACLES = ("TypeLabel", "validate_diagram", "components", "_template",
                    "component_labels", "recognize_type")
# second copies of a rule that `classify_cone`, `fans._inherit` and
# `simplicial_multiset` keep; a second form of a parsed document
DELETED = ("coloured_face", "is_simplicial", "is_regular", "coloured_rays",
           "FanDocument", "GroupComponent", "to_mapping", "render")


def test_public_api():
    # the package exposes its version and its submodules, nothing else
    import horofan
    names = {m.name for m in pkgutil.iter_modules(horofan.__path__)}
    modules = [importlib.import_module(f"horofan.{name}") for name in names]
    assert {name for name in vars(horofan) if not name.startswith("_")} == names
    assert horofan.__version__ and not hasattr(horofan, "__all__")
    gone = MOVED_TO_ORACLES + DELETED
    assert not [(m.__name__, name) for m in modules for name in gone
                if hasattr(m, name)]
    # only the tests used these; the oracle checks arbitrary edges
    from horofan import cox, errors, lattice
    assert not hasattr(dk, "_assemble") and not hasattr(errors, "BadEdge")
    assert not hasattr(lattice, "saturation_with_extension")
    assert not hasattr(cox, "cox_basis_index")
    assert not hasattr(lattice.FGAbelianGroup, "is_trivial")

"""Independent brute-force oracles used to cross-check the library.

Each oracle deliberately avoids the code path it checks: cone membership
uses Caratheodory subsets with exact rational solves, invariant factors use
the gcd-of-minors formula, dim-3 facets use cross products, faces in any
rank use supporting hyperplanes through subsets of the generators, extreme
rays of halfspace systems use every subset of k - 1 rows, and diagram
recognition, down to the numbering, matches decorated graphs against
`standard_component` by permutation search (the templates themselves are
checked against the Bourbaki plates, written out here with the Cartan
determinants).  `_assemble` checks arbitrary nodes and edges, which the
library never builds; it is the oracle of `standard_diagram`, which
checks only what its caller chooses.  The library recognizes no type: it
walks a chain from the colour to decide the vivid condition.  Here `component_labels` recognizes every
finite-type numbering by searching along edges; it is the oracle of that
walk and of `standard_diagram`, and the permutation search is its oracle.
`face_colours_oracle` decides the face rule with Caratheodory membership;
`pair_check_oracle` validates a fan by checking every pair, each
intersected by a full double description and `is_face_of` deciding faces
by the cones `faces` lists: the oracle of the wall test and of the nested
and ray-set shortcuts in `validate_fan`;
`cox_lift_oracle` is the Cox lift by cone containment and full fan
validation, the oracle of the lift that picks generators by ray set.
`snf_diagonal` and `linearly_independent` are no oracles: they read the
library's Smith normal form and rank, for the tests that compare them with
one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from horofan import cones as pc
from horofan import dynkin as dk
from horofan.dynkin import FAMILIES, _STANDARD_RANKS, DynkinData, DynkinEdge, \
    _adjacency, _reachable, connected_component, standard_component
from horofan.errors import BadParabolic, DimensionMismatch, \
    InconsistentColours, OverlappingCones, UnknownDiagram, UnknownNode, \
    ValidationError
from horofan.fans import ColouredCone, ColouredFan, ColouredLattice, validate_fan
from horofan.lattice import Mat, Vec, dot, identity, rank_of, smith_normal_form
from horofan.record import Record


# --- exact rational linear solve -------------------------------------------

def solve_rational(rows: list[Vec], target: Vec) -> list[Fraction] | None:
    """Solve sum_i x_i * rows[i] == target exactly, if a solution exists."""
    m = len(rows)
    n = len(target)
    aug = [[Fraction(rows[i][j]) for i in range(m)] + [Fraction(target[j])]
           for j in range(n)]
    piv_cols: list[int] = []
    r = 0
    for c in range(m):
        sel = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][m] != 0:
            return None
    x = [Fraction(0)] * m
    for row_idx, c in enumerate(piv_cols):
        x[c] = aug[row_idx][m]
    return x


# --- cone membership by Caratheodory ---------------------------------------

def member_oracle(gens: list[Vec], v: Vec) -> bool:
    """v in cone(gens), checked over subsets of size <= dim."""
    if not any(v):
        return True
    if not gens:
        return False
    n = len(v)
    for k in range(1, n + 1):
        for subset in combinations(gens, k):
            x = solve_rational(list(subset), v)
            if x is not None and all(c >= 0 for c in x):
                return True
    return False


def relint_oracle(gens: list[Vec], v: Vec) -> bool:
    """v in the relative interior of cone(gens).

    Uses the perturbation v - delta * (sum of generators): for rational data
    with entries bounded by B in dimension <= 3, any relative-interior point
    survives delta = 1 / (1 + 6 * len(gens) * B^3).
    """
    if not gens:
        return not any(v)
    if not member_oracle(gens, v):
        return False
    n = len(v)
    B = max(max(abs(x) for x in g) for g in gens)
    B = max(B, max((abs(x) for x in v), default=1), 1)
    delta = Fraction(1, 1 + 6 * len(gens) * B ** 3)
    s = [sum(g[i] for g in gens) for i in range(n)]
    target = tuple(Fraction(v[i]) - delta * s[i] for i in range(n))
    # clear denominators so member_oracle sees integers
    den = 1
    for x in target:
        den = den * x.denominator // __import__("math").gcd(den, x.denominator)
    target_int = tuple(int(x * den) for x in target)
    return member_oracle(gens, target_int)


# --- faces by supporting hyperplanes, in any rank ---------------------------

def rank_oracle(vs) -> int:
    """The rank of the vectors, by elimination over the rationals."""
    rows = [list(map(Fraction, v)) for v in vs]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def faces_oracle(gens: list[Vec]) -> set[tuple[frozenset[Vec], int]]:
    """(extreme rays, dim) of every face of the pointed cone on gens, which
    need not be full-dimensional.  In coordinates on d independent
    generators, d the rank of gens, a facet is cut out by the hyperplane
    through d - 1 generators, normal to their generalized cross product n,
    when n has one sign on every generator.  The faces are the cone and the
    intersections of facets, and the extreme rays are the faces of dim 1."""
    from math import lcm

    gens = sorted({_prim(g) for g in gens})
    basis: list[Vec] = []
    for g in gens:
        if rank_oracle(basis + [g]) > len(basis):
            basis.append(g)
    d = len(basis)
    coords = {}
    for g in gens:  # scaled to integers, which keeps each sign
        x = solve_rational(basis, g)
        den = lcm(*(c.denominator for c in x))
        coords[g] = tuple(int(c * den) for c in x)
    facets = set()
    for subset in combinations(gens, d - 1) if d else ():
        rows = [coords[g] for g in subset]
        n = tuple((-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(d))
        side = {g: dot(n, coords[g]) for g in gens}
        if any(n) and (min(side.values()) >= 0 or max(side.values()) <= 0):
            facets.add(frozenset(g for g, x in side.items() if x == 0))
    found = {frozenset(gens)}
    todo = list(found)
    while todo:
        face = todo.pop()
        new = {face & f for f in facets} - found
        found |= new
        todo += new
    dims = {s: rank_oracle(sorted(s)) for s in found}
    extreme = {g for s, k in dims.items() if k == 1 for g in s}
    return {(s & extreme, k) for s, k in dims.items()}


# --- dim-3 facet/face enumeration ------------------------------------------

def _cross(a: Vec, b: Vec) -> Vec:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _prim(v: Vec) -> Vec:
    from math import gcd
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def facets3d_oracle(gens: list[Vec]) -> set[Vec]:
    """Facet normals of a full-dimensional pointed cone in Z^3."""
    normals = set()
    for a, b in combinations(gens, 2):
        n = _cross(a, b)
        if not any(n):
            continue
        n = _prim(n)
        dots = [dot(n, g) for g in gens]
        if all(x <= 0 for x in dots):
            n, dots = tuple(-x for x in n), [-x for x in dots]
        elif not all(x >= 0 for x in dots):
            continue
        tight = [g for g, x in zip(gens, dots) if x == 0]
        if len(tight) >= 2 and any(any(_cross(p, q)) for p, q
                                   in combinations(tight, 2)):
            normals.add(n)
    return normals


def faces3d_oracle(gens: list[Vec]) -> set[frozenset[Vec]]:
    """Ray sets of all faces of a full-dimensional pointed cone in Z^3."""
    extreme = [g for g in gens
               if not member_oracle([h for h in gens if h != g], g)]
    normals = list(facets3d_oracle(gens))
    out = {frozenset(), frozenset(_prim(g) for g in extreme)}
    for k in range(1, len(normals) + 1):
        for subset in combinations(normals, k):
            rays = frozenset(_prim(g) for g in extreme
                             if all(dot(n, g) == 0 for n in subset))
            out.add(rays)
    return out


# --- extreme rays of a halfspace system, by subsets of tight rows ----------

def extreme_rays_oracle(rows: list[Vec], k: int) -> list[Vec]:
    """Extreme rays of {x : row @ x >= 0} for rows of rank k.

    Every extreme ray is the kernel line of k - 1 independent rows; the
    kernel direction of k - 1 rows is their generalized cross product (the
    signed maximal minors), kept with the sign that satisfies every row.
    """
    out = set()
    for subset in combinations(rows, k - 1):
        d = tuple((-1) ** j * _det([[r[i] for i in range(k) if i != j]
                                    for r in subset]) for j in range(k))
        if not any(d):
            continue  # the subset has rank < k - 1
        for v in (d, tuple(-x for x in d)):
            if all(dot(r, v) >= 0 for r in rows):
                out.add(_prim(v))
    return sorted(out)


# --- invariant factors via determinantal divisors --------------------------

def _det(rows) -> int:
    """Determinant of a square integer matrix by Laplace expansion."""
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def minors_gcd_invariant_factors(A: Mat) -> list[int]:
    """d_k = gcd(k-minors) / gcd((k-1)-minors); independent of elimination."""
    from math import gcd

    m, n = len(A), len(A[0]) if A else 0

    def det(rows_idx, cols_idx):
        return _det([[A[i][j] for j in cols_idx] for i in rows_idx])

    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows_idx in combinations(range(m), k):
            for cols_idx in combinations(range(n), k):
                g = gcd(g, det(rows_idx, cols_idx))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def snf_diagonal(A) -> tuple[int, ...]:
    """Nonzero diagonal entries of `smith_normal_form(A)`, in chain order."""
    _, D, _ = smith_normal_form(A)
    return tuple(D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i])


def linearly_independent(vs) -> bool:
    """True iff the multiset is R-linearly independent (repeats always fail)."""
    vs = list(vs)
    return rank_of(vs) == len(vs)


# --- the Bourbaki plates ----------------------------------------------------

# Bourbaki, *Lie Groups and Lie Algebras*, Ch. IV-VI, Plates I-IX, written out
# without `dynkin`: the edges (i, j, multiplicity, long root) of each
# diagram, its nodes numbered 1..n as the plate numbers the simple roots.  A
# series is its chain 1 - 2 - ... - (n - 1) and the plate's last edge; the
# exceptional diagrams are listed.  D3 = A3 and B1 = C1 = A1 are named A.
Plate = list[tuple[int, int, int, "int | None"]]


def _chain(n: int) -> Plate:
    return [(i, i + 1, 1, None) for i in range(1, n)]


_E6 = [(1, 3, 1, None), (2, 4, 1, None), (3, 4, 1, None), (4, 5, 1, None),
       (5, 6, 1, None)]
BOURBAKI_PLATES = {
    "A": lambda n: _chain(n) if n >= 1 else None,                         # I
    "B": lambda n: _chain(n - 1) + [(n - 1, n, 2, n - 1)] if n >= 2 else None,  # II
    "C": lambda n: _chain(n - 1) + [(n - 1, n, 2, n)] if n >= 2 else None,  # III
    "D": lambda n: _chain(n - 1) + [(n - 2, n, 1, None)] if n >= 4 else None,  # IV
    "E": {6: _E6,                                                          # V
          7: _E6 + [(6, 7, 1, None)],                                      # VI
          8: _E6 + [(6, 7, 1, None), (7, 8, 1, None)]}.get,                # VII
    "F": {4: [(1, 2, 1, None), (2, 3, 2, 2), (3, 4, 1, None)]}.get,        # VIII
    "G": {2: [(1, 2, 3, 2)]}.get,                                          # IX
}

# the determinant of the Cartan matrix, the index of the root lattice in the
# weight lattice (Plates I-IX, item VIII)
CARTAN_DETERMINANTS = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
                       "D": lambda n: 4, "E": {6: 3, 7: 2, 8: 1}.get,
                       "F": lambda n: 1, "G": lambda n: 1}


def cartan_matrix(n: int, plate: Plate) -> list[list[int]]:
    """2 on the diagonal; -1 both ways along a single edge; along an edge of
    multiplicity m, -m in the short root's row and -1 in the long root's."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, m, long in plate:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
        if m > 1:
            short = j if long == i else i
            a[short - 1][long - 1] = -m
    return a


def determinant(rows) -> Fraction:
    """By Gaussian elimination over the rationals, skipping zero entries."""
    a = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


# --- dynkin template matching ----------------------------------------------

TEMPLATES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4),
             ("G", 2)]


def _edge_map(d: dk.DynkinData):
    return {e.ends(): (e.multiplicity, e.long) for e in d.edges}


def template_matches(d: dk.DynkinData, nodes: frozenset[str]
                     ) -> set[tuple[str, int]]:
    """All (family, rank) whose standard diagram is isomorphic to the
    induced decorated graph, by brute-force bijection search (rank <= 4)."""
    sub_edges = {pair: data for pair, data in _edge_map(d).items()
                 if pair <= nodes}
    out = set()
    for family, rank in TEMPLATES:
        if rank != len(nodes):
            continue
        t_nodes, t_edges = dk.standard_component(family, rank, "t")
        t_map = {e.ends(): (e.multiplicity, e.long) for e in t_edges}
        for perm in permutations(sorted(nodes)):
            phi = dict(zip(t_nodes, perm))  # template node -> our node
            ok = True
            mapped = {}
            for pair, (mult, long) in t_map.items():
                a, b = tuple(pair)
                img = frozenset((phi[a], phi[b]))
                mapped[img] = (mult, phi[long] if long else None)
            if set(mapped) != set(sub_edges):
                continue
            for pair, data in mapped.items():
                if sub_edges[pair] != data:
                    ok = False
                    break
            if ok:
                out.add((family, rank))
                break
    return out


def numbering_oracle(d: dk.DynkinData, nodes: frozenset[str]
                     ) -> set[tuple[str, int, tuple[str, ...]]]:
    """Every (family, rank, numbering) under which the induced decorated
    graph is the standard diagram of that family and rank, by trying every
    bijection (rank <= 5); numbering[i] is the node numbered i + 1."""
    sub_edges = {pair: data for pair, data in _edge_map(d).items()
                 if pair <= nodes}
    out = set()
    for family in dk.FAMILIES:
        try:
            t_nodes, t_edges = dk.standard_component(family, len(nodes), "t")
        except UnknownDiagram:
            continue
        for perm in permutations(sorted(nodes)):
            phi = dict(zip(t_nodes, perm))  # template node -> our node
            mapped = {frozenset((phi[e.a], phi[e.b])):
                      (e.multiplicity, phi[e.long] if e.long else None)
                      for e in t_edges}
            if mapped == sub_edges:
                out.add((family, len(nodes), perm))
    return out


# --- diagram type recognition, the oracle of the chain walk ---------------

class TypeLabel(Record):
    """A family, rank, and Bourbaki numbering of one connected component."""

    family: str
    rank: int
    nodes_by_index: tuple[str, ...]  # position i holds the node numbered i+1


class BadEdge(ValidationError):
    """Edge multiplicity or direction marker is inconsistent."""


def _assemble(nodes, edges, parabolic, torus_rank: int) -> DynkinData:
    """A DynkinData from arbitrary nodes and edges, after the node, edge and
    parabolic checks, unrecognized; edges get their endpoints in string
    order and are sorted.  The library builds only standard components,
    well formed by construction, and checks no edge itself."""
    nodes = tuple(str(n) for n in nodes)
    if len(set(nodes)) != len(nodes):
        raise ValidationError("duplicate node identifiers")
    if torus_rank < 0:
        raise ValidationError("negative torus rank")
    node_set = set(nodes)

    norm_edges = []
    seen_pairs = set()
    for e in edges:
        if not isinstance(e, DynkinEdge):
            e = DynkinEdge(*e)
        if e.a not in node_set or e.b not in node_set:
            raise UnknownNode(f"edge endpoint not a node: {e.a!r}-{e.b!r}")
        if e.a == e.b:
            raise BadEdge(f"self-loop at {e.a!r}")
        if e.multiplicity not in (1, 2, 3):
            raise BadEdge(f"edge multiplicity {e.multiplicity} outside {{1,2,3}}")
        if e.multiplicity == 1 and e.long is not None:
            raise BadEdge("single edge carries a direction marker")
        if e.multiplicity > 1 and e.long not in (e.a, e.b):
            raise BadEdge("multiple edge must mark one endpoint as the long root")
        pair = e.ends()
        if pair in seen_pairs:
            raise BadEdge(f"duplicate edge {e.a!r}-{e.b!r}")
        seen_pairs.add(pair)
        a, b = sorted((e.a, e.b))
        norm_edges.append(DynkinEdge(a, b, e.multiplicity, e.long))

    parabolic = frozenset(str(n) for n in parabolic)
    if not parabolic <= node_set:
        raise BadParabolic(f"parabolic nodes outside the diagram: "
                           f"{sorted(parabolic - node_set)}")

    return DynkinData(nodes, tuple(sorted(norm_edges, key=lambda e: (e.a, e.b))),
                      torus_rank, parabolic)


def validate_diagram(nodes, edges, parabolic=(), torus_rank: int = 0) -> DynkinData:
    """Build a DynkinData, rejecting anything outside the A-G classification."""
    d = _assemble(nodes, edges, parabolic, torus_rank)
    for comp in components(d):
        if not component_labels(d, comp):
            raise UnknownDiagram(f"component {sorted(comp)} is not of finite type")
    return d


def components(d: DynkinData) -> list[frozenset[str]]:
    out = []
    seen: set[str] = set()
    for n in d.nodes:
        if n not in seen:
            comp = connected_component(d, n)
            seen |= comp
            out.append(comp)
    return out


@lru_cache(maxsize=None)
def _template(family: str, rank: int):
    """`standard_component(family, rank)` in the order `component_labels`
    places it: one step per node, breadth first from index 0.

    Returns the step of each standard index; per step s, the earlier step
    whose node s is placed next to, the degree of s, and its edges to
    earlier steps as {step: (multiplicity, whether s is the long end)};
    and the sorted degrees.
    """
    names, es = standard_component(family, rank, "")
    nbrs: dict[str, dict[str, tuple[int, bool]]] = {v: {} for v in names}
    for e in es:
        nbrs[e.a][e.b] = (e.multiplicity, e.long == e.a)
        nbrs[e.b][e.a] = (e.multiplicity, e.long == e.b)
    order = names[:1]
    for v in order:
        order += [w for w in nbrs[v] if w not in order]
    step = {v: s for s, v in enumerate(order)}
    back = [{step[w]: x for w, x in nbrs[v].items() if step[w] < s}
            for s, v in enumerate(order)]
    degrees = [len(nbrs[v]) for v in order]
    return ([step[v] for v in names], [min(b, default=0) for b in back],
            degrees, back, sorted(degrees))


@lru_cache(maxsize=None)
def component_labels(d: DynkinData, nodes: frozenset[str]) -> tuple[TypeLabel, ...]:
    """All valid (family, rank, numbering) labels of the induced subdiagram.

    Empty when the induced decorated graph is not one of A-G.  The induced
    graph must be connected.  Multiple labels appear exactly for diagrams
    with a numbering ambiguity (A_n reversal, B2/C2, D/E automorphisms).

    The subdiagram is matched against `standard_component` of each family
    admitting rank len(nodes) whose sorted degrees equal its own: index 0
    goes on a node of its degree, then each later index, in breadth-first
    order, on an unused neighbour of the node holding its parent, with its
    degree and exactly its standard edges (multiplicity and long end) to
    the nodes placed so far.
    """
    if not nodes <= set(d.nodes):
        raise UnknownNode(f"nodes outside the diagram: {sorted(nodes - set(d.nodes))}")
    n = len(nodes)
    if n == 0:
        return ()
    if _reachable(d, next(iter(nodes)), nodes) != nodes:
        raise ValidationError(f"node set {sorted(nodes)} is not connected")

    full_adj = _adjacency(d)
    adj = {v: tuple(w for w in full_adj[v] if w in nodes) for v in nodes}
    deg = {v: len(ws) for v, ws in adj.items()}

    def seen_from(v: str, w: str) -> tuple[int, bool]:
        e = full_adj[v][w]
        return e.multiplicity, e.long == v

    labels = []
    for family in FAMILIES:
        if not _STANDARD_RANKS[family](n):
            continue
        step_of, anchor, degrees, back, degree_seq = _template(family, n)
        if sorted(deg.values()) != degree_seq:
            continue
        stack = [(v,) for v in nodes if deg[v] == degrees[0]]
        while stack:
            at = stack.pop()  # at[s] is the node placed at step s
            s = len(at)
            if s == n:
                labels.append(TypeLabel(family, n, tuple(at[t] for t in step_of)))
                continue
            stack += [at + (v,) for v in adj[at[anchor[s]]]
                      if v not in at and deg[v] == degrees[s] and back[s] ==
                      {at.index(w): seen_from(v, w) for w in adj[v] if w in at}]
    return tuple(sorted(labels, key=lambda l: (l.family, l.nodes_by_index)))


def recognize_type(d: DynkinData, component, first: str | None = None) -> TypeLabel:
    """Deterministic TypeLabel of a connected node set.

    Ties (diagram automorphisms, the B2/C2 ambiguity) break to the
    lexicographically smallest (family, numbering).  Passing `first` keeps
    only numberings placing that node at Bourbaki index 1.
    """
    comp = frozenset(component)
    labels = list(component_labels(d, comp))
    if not labels:
        raise UnknownDiagram(f"component {sorted(comp)} is not of finite type")
    if first is not None:
        if first not in comp:
            raise UnknownNode(f"{first!r} is not in the component")
        labels = [l for l in labels if l.nodes_by_index[0] == first]
        if not labels:
            raise UnknownDiagram(
                f"no finite-type numbering of {sorted(comp)} places {first!r} first")
    return min(labels, key=lambda l: (l.family, l.rank, l.nodes_by_index))


def example_A_rule(n: int, parabolic_indices: set[int], i: int) -> bool:
    """Closed-form vividness for A_n with F = {alpha_i}: true when i is an
    end of the chain, or when not both neighbours lie in the parabolic set."""
    if i in (1, n):
        return True
    return not (i - 1 in parabolic_indices and i + 1 in parabolic_indices)


# --- faces, the pair check and the Cox lift --------------------------------

def is_face_of(t: pc.Cone, c: pc.Cone) -> bool:
    """True iff t is a face of c: t's rays are among c's and t is one of
    the cones `faces(c)` lists."""
    if t.ambient_rank != c.ambient_rank:
        raise DimensionMismatch("cones in different ambient lattices")
    if not set(t.rays) <= set(c.rays):
        return False
    return t in pc.faces(c)


def face_colours_oracle(sc: ColouredCone, t: pc.Cone, L: ColouredLattice
                        ) -> ColouredCone:
    """The face t of sc with the colours of sc whose point lies on t,
    membership decided by `member_oracle` on t's rays."""
    return ColouredCone(t, frozenset(a for a in sc.colours
                                     if member_oracle(list(t.rays), L.xi(a))))


def intersect_oracle(a: pc.Cone, b: pc.Cone) -> pc.Cone:
    """a ∩ b by a full double description of both cones' inequalities and
    equations, with no shortcut for nested cones; a is pointed, so no
    lineality is left."""
    k = a.ambient_rank
    rays, _ = pc.extreme_rays(a.facet_normals + b.facet_normals, k,
                              a.equations + b.equations)
    return pc.cone_from_generators(rays, k)


def pair_check_oracle(L: ColouredLattice, coloured_cones
                      ) -> frozenset[ColouredCone]:
    """The members of the fan the coloured cones generate, checking every
    pair: OverlappingCones unless each pair meets (`intersect_oracle`) in a
    face of both (`is_face_of`), InconsistentColours when one face gets two
    colour sets (`face_colours_oracle`)."""
    inputs = list(dict.fromkeys(coloured_cones))
    for a, b in combinations(inputs, 2):
        t = intersect_oracle(a.cone, b.cone)
        if not (is_face_of(t, a.cone) and is_face_of(t, b.cone)):
            raise OverlappingCones(f"{a.cone} and {b.cone} meet in {t}")
    origin = pc.zero_cone(L.rank)
    members = {origin: ColouredCone(origin, frozenset())}
    for sc in inputs:
        for t in pc.faces(sc.cone):
            cf = face_colours_oracle(sc, t, L)
            if members.setdefault(t, cf).colours != cf.colours:
                raise InconsistentColours(f"{t} carries two colour sets")
    return frozenset(members.values())


def cox_lift_oracle(fan: ColouredFan) -> ColouredFan:
    """The lifted fan by containment and full validation.

    Basis vectors go to the colours in diagram order, then to the
    non-coloured rays in sorted order; each member lifts to the cone over
    the vectors of its colours and of every non-coloured ray its cone
    contains (`cones.contains`), and `validate_fan` checks every pair of
    lifted cones and closes them under faces.
    """
    L = fan.lattice
    rays = fan.non_coloured_rays()
    n_hat = len(L.colours) + len(rays)
    e = identity(n_hat)
    colour_vector = dict(zip(L.colours, e))
    ray_vectors = list(zip(rays, e[len(L.colours):]))
    lifted = []
    for sc in fan.cones:
        gens = [colour_vector[a] for a in sc.colours]
        gens += [v for r, v in ray_vectors if pc.contains(sc.cone, r) != pc.OUTSIDE]
        lifted.append(ColouredCone(pc.cone_from_generators(gens, n_hat), sc.colours))
    return validate_fan(ColouredLattice(n_hat, L.colours, e[:len(L.colours)]), lifted)

"""Dynkin diagrams of reductive groups and the per-colour smoothness condition.

A diagram is an undirected decorated graph: edges carry a multiplicity in
{1, 2, 3} and, when the multiplicity exceeds 1, a marker naming the endpoint
that is the long root.  That is the minimal data separating the B and C
series.  `validate_diagram` recognizes each component of an arbitrary graph
by matching it against the standard diagrams of `standard_component`, the
one place the shapes are encoded; `standard_diagram` trusts
`standard_component` and recognizes nothing.  Standard diagrams number
their nodes in the Bourbaki convention:

* A_n   chain a1 - a2 - ... - an
* B_n   chain with a double edge at the end, the extreme root short
* C_n   chain with a double edge at the end, the extreme root long
* D_n   chain ending in a fork with two single nodes a_{n-1}, a_n
* E_6/7/8   chain a1 - a3 - a4 - ... with a2 attached to a4
* F_4   a1 - a2 => a3 - a4 (a2 long)
* G_2   a1 <= a2 triple edge (a1 short)

The rank-2 double-edge diagram is B2 and C2 at once; `recognize_type`
reports the lexicographically smaller family (B) unless the caller pins a
node that must come first, the case the "type A_n or C_n with alpha first"
colour condition needs.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .errors import (
    BadEdge,
    BadParabolic,
    UnknownColour,
    UnknownDiagram,
    UnknownNode,
    ValidationError,
)
from .record import Record

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class DynkinEdge(Record):
    a: str
    b: str
    multiplicity: int = 1
    long: str | None = None  # long-root endpoint, only for multiplicity > 1

    def ends(self) -> frozenset[str]:
        return frozenset((self.a, self.b))


class DynkinData(Record):
    """Decorated graph of simple roots plus a parabolic subset."""

    nodes: tuple[str, ...]
    edges: tuple[DynkinEdge, ...]
    torus_rank: int = 0
    parabolic: frozenset[str] = frozenset()

    @property
    def colours(self) -> tuple[str, ...]:
        """Universal colour set S \\ I, in diagram order."""
        return tuple(n for n in self.nodes if n not in self.parabolic)


class TypeLabel(Record):
    """A family, rank, and Bourbaki numbering of one connected component."""

    family: str
    rank: int
    nodes_by_index: tuple[str, ...]  # position i holds the node numbered i+1


def validate_diagram(nodes, edges, parabolic=(), torus_rank: int = 0) -> DynkinData:
    """Build a DynkinData, rejecting anything outside the A-G classification."""
    d = _assemble(nodes, edges, parabolic, torus_rank)
    for comp in components(d):
        if not component_labels(d, comp):
            raise UnknownDiagram(f"component {sorted(comp)} is not of finite type")
    return d


def _assemble(nodes, edges, parabolic, torus_rank: int) -> DynkinData:
    """A DynkinData after the node, edge and parabolic checks, unrecognized."""
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


@lru_cache(maxsize=None)
def _adjacency(d: DynkinData) -> dict[str, tuple[str, ...]]:
    adj: dict[str, list[str]] = {n: [] for n in d.nodes}
    for e in d.edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    return {n: tuple(sorted(vs)) for n, vs in adj.items()}


@lru_cache(maxsize=None)
def _edge_lookup(d: DynkinData) -> dict[frozenset[str], DynkinEdge]:
    return {e.ends(): e for e in d.edges}


def _reachable(d: DynkinData, start: str, allowed: frozenset[str]) -> frozenset[str]:
    adj = _adjacency(d)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w in allowed and w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def connected_component(d: DynkinData, v: str) -> frozenset[str]:
    """Vertex set of v's connected component in the full diagram."""
    if v not in d.nodes:
        raise UnknownNode(f"unknown node {v!r}")
    return _reachable(d, v, frozenset(d.nodes))


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
    edge_of = _edge_lookup(d)

    def seen_from(v: str, w: str) -> tuple[int, bool]:
        e = edge_of[frozenset((v, w))]
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


def _adjacent_parabolic_components(d: DynkinData, alpha: str) -> list[frozenset[str]]:
    adj = _adjacency(d)
    comps: list[frozenset[str]] = []
    for w in adj[alpha]:
        if w not in d.parabolic:
            continue
        comp = _reachable(d, w, d.parabolic)
        if comp not in comps:
            comps.append(comp)
    return comps


def vivid_colour_ok(d: DynkinData, F, alpha: str) -> bool:
    """The two diagram conditions a colour must satisfy inside a cone.

    (1) alpha is the only element of F in its connected component, and
    (2) alpha touches at most one component I_alpha of the parabolic set,
        and if it touches one then I_alpha together with alpha forms an A- or
        C-type chain in which alpha is the first simple root.
    """
    F = frozenset(F)
    colour_set = set(d.colours)
    if alpha not in colour_set or alpha not in F:
        raise UnknownColour(f"{alpha!r} is not a colour of this cone")
    if not F <= colour_set:
        raise UnknownColour(
            f"colours outside the universal colour set: {sorted(F - colour_set)}")

    if connected_component(d, alpha) & F != {alpha}:
        return False

    touching = _adjacent_parabolic_components(d, alpha)
    if len(touching) > 1:
        return False
    if not touching:
        return True
    nodes = touching[0] | {alpha}
    return any(l.family in ("A", "C") and l.nodes_by_index[0] == alpha
               for l in component_labels(d, frozenset(nodes)))


def is_projective_space_product(d: DynkinData) -> bool:
    """Whether G/P is a product of projective spaces.

    Equivalent to every colour passing `vivid_colour_ok` against the full
    colour set: each diagram component then consists of one colour and its
    attached parabolic chain (or of parabolic nodes only, contributing a
    point factor).
    """
    F = frozenset(d.colours)
    return all(vivid_colour_ok(d, F, alpha) for alpha in d.colours)


_STANDARD_RANKS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


def standard_component(family: str, rank: int, prefix: str
                       ) -> tuple[list[str], list[DynkinEdge]]:
    """Nodes and edges of a standard component, named prefix.1 .. prefix.rank."""
    family = family.upper()
    if family not in _STANDARD_RANKS or not _STANDARD_RANKS[family](rank):
        raise UnknownDiagram(f"no finite-type diagram {family}{rank}")
    name = [None] + [f"{prefix}.{i}" for i in range(1, rank + 1)]
    chain = lambda i, j: DynkinEdge(name[i], name[j])

    if family == "A":
        edges = [chain(i, i + 1) for i in range(1, rank)]
    elif family in ("B", "C"):
        edges = [chain(i, i + 1) for i in range(1, rank - 1)]
        long = name[rank - 1] if family == "B" else name[rank]
        edges.append(DynkinEdge(name[rank - 1], name[rank], 2, long))
    elif family == "D":
        edges = [chain(i, i + 1) for i in range(1, rank - 2)]
        edges += [chain(rank - 2, rank - 1), chain(rank - 2, rank)]
    elif family == "E":
        edges = [chain(1, 3), chain(2, 4)]
        edges += [chain(i, i + 1) for i in range(3, rank)]
    elif family == "F":
        edges = [chain(1, 2), DynkinEdge(name[2], name[3], 2, name[2]), chain(3, 4)]
    else:  # G
        edges = [DynkinEdge(name[1], name[2], 3, name[2])]
    return name[1:], edges


def standard_diagram(component_specs, torus_rank: int = 0, parabolic=()) -> DynkinData:
    """Assemble a diagram from (family, rank, prefix) component specs, with the
    checks of `validate_diagram` but no recognition: each one is standard."""
    nodes: list[str] = []
    edges: list[DynkinEdge] = []
    for family, rank, prefix in component_specs:
        ns, es = standard_component(family, rank, prefix)
        nodes += ns
        edges += es
    return _assemble(nodes, edges, parabolic, torus_rank)

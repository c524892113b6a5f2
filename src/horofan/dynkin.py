"""Dynkin diagrams of reductive groups and the per-colour smoothness condition.

A diagram is an undirected decorated graph: edges carry a multiplicity in
{1, 2, 3} and, when the multiplicity exceeds 1, a marker naming the endpoint
that is the long root.  That is the minimal data separating the B and C
series.  `standard_component` is the one place the shapes are encoded, so
standard components are well formed by construction (only the test oracle
checks arbitrary edges); `standard_diagram` assembles them and recognizes
nothing.  Standard diagrams number their nodes in the Bourbaki convention:

* A_n   chain a1 - a2 - ... - an
* B_n   chain with a double edge at the end, the extreme root short
* C_n   chain with a double edge at the end, the extreme root long
* D_n   chain ending in a fork with two single nodes a_{n-1}, a_n
* E_6/7/8   chain a1 - a3 - a4 - ... with a2 attached to a4
* F_4   a1 - a2 => a3 - a4 (a2 long)
* G_2   a1 <= a2 triple edge (a1 short)

No type is recognized here; the neighbour map is built once.  The colour
condition's clause (2) is one walk from the colour alpha through the
parabolic nodes it reaches, which must form with alpha an A_n or C_n chain
numbered from alpha.  The rank-2 double-edge diagram is B2 and C2 at once;
it passes exactly when alpha is its short root (C2 numbered from alpha).
"""

from __future__ import annotations

from collections import deque

from .errors import (BadParabolic, UnknownColour, UnknownDiagram, UnknownNode,
                     ValidationError)
from .record import Lookup, Record

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class DynkinEdge(Record):
    a: str
    b: str
    multiplicity: int = 1
    long: str | None = None  # long-root endpoint, only for multiplicity > 1

    def ends(self) -> frozenset[str]:
        return frozenset((self.a, self.b))


class DynkinData(Lookup, Record):
    """Decorated graph of simple roots plus a parabolic subset; looks a
    node's neighbours up in one map, built once."""

    nodes: tuple[str, ...]
    edges: tuple[DynkinEdge, ...]
    torus_rank: int = 0
    parabolic: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "_lookup", _adjacency(self))

    @property
    def colours(self) -> tuple[str, ...]:
        """Universal colour set S \\ I, in diagram order."""
        return tuple(n for n in self.nodes if n not in self.parabolic)


def _adjacency(d: DynkinData) -> dict[str, dict[str, DynkinEdge]]:
    """Each node's neighbours, each with the edge that joins them."""
    adj: dict[str, dict[str, DynkinEdge]] = {n: {} for n in d.nodes}
    for e in d.edges:
        adj[e.a][e.b] = adj[e.b][e.a] = e
    return adj


def _reachable(d: DynkinData, start: str, allowed) -> frozenset[str]:
    """start and the nodes in `allowed` reachable from it through `allowed`."""
    adj = d._lookup
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
    if v not in d._lookup:
        raise UnknownNode(f"unknown node {v!r}")
    return _reachable(d, v, d._lookup)


def vivid_colour_ok(d: DynkinData, F, alpha: str) -> bool:
    """The two diagram conditions a colour must satisfy inside a cone.

    (1) alpha is the only element of F in its connected component, and
    (2) alpha touches at most one component I_alpha of the parabolic set,
        and if it touches one then I_alpha together with alpha forms an A- or
        C-type chain in which alpha is the first simple root.

    Only alpha is checked: the other colours of F entered with their cone.
    """
    F = frozenset(F)
    if alpha not in d._lookup or alpha in d.parabolic or alpha not in F:
        raise UnknownColour(f"{alpha!r} is not a colour of this cone")
    if connected_component(d, alpha) & F != {alpha}:
        return False
    # (2) over alpha and every parabolic component touching it: with none the
    # walk visits alpha only; two touchings give alpha two neighbours ahead
    return _chain_from(d, alpha, _reachable(d, alpha, d.parabolic))


def _chain_from(d: DynkinData, alpha: str, nodes: frozenset[str]) -> bool:
    """Whether `nodes` induce an A_n or a C_n diagram numbered from alpha.

    The walk starts at alpha and steps to the one neighbour in `nodes` it
    did not come from, along single edges.  A double edge towards the long
    root ends it: the C_n end (for n = 2, the C2 numbering, alpha short).
    A fork or any other multiple edge means no; otherwise the answer is
    whether the walk visited all of `nodes`.  A walk of more than
    len(nodes) nodes has gone round a cycle.
    """
    adj = d._lookup
    prev, v = None, alpha
    for visited in range(1, len(nodes) + 1):
        ahead = (adj[v].keys() & nodes) - {prev}
        if not ahead:
            return visited == len(nodes)
        if len(ahead) > 1:
            return False
        (w,) = ahead
        e = adj[v][w]
        if e.multiplicity == 2 and e.long == w:
            return visited + 1 == len(nodes)
        if e.multiplicity != 1:
            return False
        prev, v = v, w
    return False


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
    """Nodes and edges of a standard component, named prefix.1 .. prefix.rank,
    each edge with its endpoints in string order ("A10.10" < "A10.9")."""
    family = family.upper()
    if family not in _STANDARD_RANKS or not _STANDARD_RANKS[family](rank):
        raise UnknownDiagram(f"no finite-type diagram {family}{rank}")
    name = [None] + [f"{prefix}.{i}" for i in range(1, rank + 1)]
    edge = lambda i, j, m=1, long=None: DynkinEdge(*sorted((name[i], name[j])), m, long)

    if family == "A":
        edges = [edge(i, i + 1) for i in range(1, rank)]
    elif family in ("B", "C"):
        edges = [edge(i, i + 1) for i in range(1, rank - 1)]
        long = name[rank - 1] if family == "B" else name[rank]
        edges.append(edge(rank - 1, rank, 2, long))
    elif family == "D":
        edges = [edge(i, i + 1) for i in range(1, rank - 2)]
        edges += [edge(rank - 2, rank - 1), edge(rank - 2, rank)]
    elif family == "E":
        edges = [edge(1, 3), edge(2, 4)]
        edges += [edge(i, i + 1) for i in range(3, rank)]
    elif family == "F":
        edges = [edge(1, 2), edge(2, 3, 2, name[2]), edge(3, 4)]
    else:  # G
        edges = [edge(1, 2, 3, name[2])]
    return name[1:], edges


def component_prefixes(pairs) -> list[str]:
    """The prefix of each (family, rank) component: family+rank ("A3"), the
    later components of a repeated family and rank suffixed "_2", "_3", ..."""
    seen: dict[str, int] = {}
    prefixes = []
    for family, rank in pairs:
        base = f"{family}{rank}"
        seen[base] = seen.get(base, 0) + 1
        prefixes.append(base if seen[base] == 1 else f"{base}_{seen[base]}")
    return prefixes


def node_names(pairs) -> list[str]:
    """The components' nodes in diagram order, as `standard_component` names them."""
    return [f"{prefix}.{i}" for (_, rank), prefix in zip(pairs, component_prefixes(pairs))
            for i in range(1, rank + 1)]


def standard_diagram(component_specs, torus_rank: int = 0, parabolic=()) -> DynkinData:
    """Assemble a diagram from (family, rank, prefix) component specs; only
    the prefixes, torus rank and parabolic nodes are checked, no type."""
    nodes: list[str] = []
    edges: list[DynkinEdge] = []
    for family, rank, prefix in component_specs:
        ns, es = standard_component(family, rank, prefix)
        nodes += ns
        edges += es
    if len(set(nodes)) != len(nodes):
        raise ValidationError("duplicate node identifiers")
    if torus_rank < 0:
        raise ValidationError("negative torus rank")
    parabolic = frozenset(parabolic)
    if not parabolic <= set(nodes):
        raise BadParabolic(f"parabolic nodes outside the diagram: "
                           f"{sorted(parabolic - set(nodes))}")
    return DynkinData(tuple(nodes), tuple(sorted(edges, key=lambda e: (e.a, e.b))),
                      torus_rank, parabolic)

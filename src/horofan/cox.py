"""Combinatorial Cox construction.

Given a coloured fan without torus factors, build the lifted lattice with
one basis vector per colour and one per non-coloured ray, the projection
matrix mu sending each basis vector to its point downstairs, the lifted
coloured fan (one cone per input cone, spanned by the basis vectors of its
colours and of the non-coloured rays in its ray set: a fan ray inside a
member is a face of it), the divisor class group as the cokernel of mu^T,
and the rank of the quotient torus.  Lifted cones are coordinate cones,
built with no double description, and the lifted fan is still validated.

Torus factors are split off first: the fan is re-expressed on the saturated
sublattice spanned by all ray generators and all colour points, and the
quotient rank records the split-off torus.
"""

from __future__ import annotations

from . import cones as pc
from . import dynkin as dk
from . import lattice
from .classification import classify as classify_fan
from .errors import HasTorusFactors
from .fans import (ColouredCone, ColouredFan, ColouredLattice, map_fan,
                   validate_fan)
from .lattice import FGAbelianGroup, Mat
from .record import Record

# basis_index entries: ("colour", name) or ("ray", primitive generator)
BasisTag = tuple[str, object]


class TorusSplit(Record):
    n_prime_basis: Mat
    quotient_rank: int
    restricted_fan: ColouredFan


class CoxData(Record):
    basis_index: tuple[BasisTag, ...]
    n_hat_rank: int
    mu: Mat  # rank(N) x n_hat_rank, one column per basis tag
    cox_fan: ColouredFan
    class_group: FGAbelianGroup
    k_hat_rank: int


def torus_split(fan: ColouredFan) -> TorusSplit:
    """Split off the torus factor: re-coordinatize on the saturated span
    of all ray generators and all colour points.  A fan without a torus
    factor splits to itself, on the identity basis."""
    L = fan.lattice
    if not has_torus_factors(fan):
        return TorusSplit(lattice.identity(L.rank), 0, fan)
    points = [m.cone.rays[0] for m in fan.ray_members()]
    points += list(L.colour_points)
    basis, coords = lattice.span_coordinates(points, L.rank)
    at = dict(zip(points, coords))
    return TorusSplit(
        n_prime_basis=basis,
        quotient_rank=L.rank - len(basis),
        restricted_fan=map_fan(fan, len(basis), at.__getitem__),
    )


def has_torus_factors(fan: ColouredFan) -> bool:
    """True iff the rays and colour points do not span the lattice, that is
    iff `torus_split(fan).quotient_rank > 0`."""
    L = fan.lattice
    rays = [m.cone.rays[0] for m in fan.ray_members()]
    return lattice.rank_of(rays + list(L.colour_points)) < L.rank


def cox_construct(fan: ColouredFan) -> CoxData:
    """The Cox data of a fan without torus factors.  Each lifted member is
    built directly as cone(e_S): its rays and facet normals are e_S, its
    equations the other e_j; `validate_fan` still checks them."""
    if has_torus_factors(fan):
        raise HasTorusFactors(
            "the fan has torus factors; apply torus_split and construct on "
            "the restricted fan")
    L = fan.lattice
    # colours in diagram order, then non-coloured rays in lexicographic order
    tags = tuple([("colour", a) for a in L.colours]
                 + [("ray", u) for u in fan.non_coloured_rays()])
    n_hat = len(tags)
    columns = [L.xi(value) if kind == "colour" else value for kind, value in tags]
    mu = lattice.transpose(columns, L.rank)

    e = lattice.identity(n_hat)
    hat_lattice = ColouredLattice(n_hat, L.colours, e[:len(L.colours)])
    basis = {value: v for (_, value), v in zip(tags, e)}

    lifted = []
    for sc in fan.cones:
        gens = {basis[a] for a in sc.colours}
        gens.update(basis[r] for r in sc.cone.rays if r in basis)
        rays = tuple(sorted(gens))
        cone = pc.Cone(n_hat, rays, rays, len(rays),
                       tuple(v for v in e if v not in gens))
        lifted.append(ColouredCone(cone, sc.colours))
    cox_fan = validate_fan(hat_lattice, lifted)

    class_group = lattice.cokernel_structure(columns)  # columns is mu^T
    return CoxData(
        basis_index=tags,
        n_hat_rank=n_hat,
        mu=mu,
        cox_fan=cox_fan,
        class_group=class_group,
        k_hat_rank=n_hat - L.rank,
    )


class CoxConsistency(Record):
    """Cross-checks tying the input fan to its Cox data.

    `orthant_shape` and `affine_space` are None unless the input fan is
    simple with full colour set (the affine case).
    """

    cox_fan_regular: bool
    mu_surjective: bool
    rank_matches_class_group: bool
    fan_vivid: bool
    cox_fan_vivid: bool
    cox_fan_smooth: bool
    projective_space_product: bool | None
    orthant_shape: bool | None
    affine_space: bool | None

    @property
    def equivalences_hold(self) -> bool:
        ok = (self.cox_fan_regular and self.mu_surjective
              and self.rank_matches_class_group
              and self.fan_vivid == self.cox_fan_vivid == self.cox_fan_smooth)
        if self.affine_space is not None:
            ok = ok and (self.projective_space_product == self.fan_vivid
                         == self.affine_space) and bool(self.orthant_shape)
        return ok


def _is_full_orthant(sc: ColouredCone, hat_lattice: ColouredLattice) -> bool:
    basis = set(lattice.identity(hat_lattice.rank))
    return set(sc.cone.rays) == basis and sc.colours == set(hat_lattice.colours)


def cox_consistency(fan: ColouredFan, d: dk.DynkinData) -> CoxConsistency:
    """Verify the structural claims of the construction on one fan."""
    data = cox_construct(fan)
    verdict = classify_fan(fan, d)
    hat_verdict = classify_fan(data.cox_fan, d)

    affine = None
    orthant = None
    psp = None
    maximal = fan.maximal_cones()
    if len(maximal) == 1 and maximal[0].colours == set(fan.lattice.colours):
        hat_maximal = data.cox_fan.maximal_cones()
        orthant = (len(hat_maximal) == 1
                   and _is_full_orthant(hat_maximal[0], data.cox_fan.lattice))
        # the lifted variety is an affine space iff it is the smooth orthant
        affine = bool(orthant) and hat_verdict.smooth
        psp = dk.is_projective_space_product(d)

    return CoxConsistency(
        cox_fan_regular=hat_verdict.factorial,
        mu_surjective=lattice.rank_of(data.mu) == fan.lattice.rank,
        rank_matches_class_group=data.k_hat_rank == data.class_group.free_rank,
        fan_vivid=verdict.vivid,
        cox_fan_vivid=hat_verdict.vivid,
        cox_fan_smooth=hat_verdict.smooth,
        projective_space_product=psp,
        orthant_shape=orthant,
        affine_space=affine,
    )

"""Canonical small structures and the instance lists the certification suites sweep.

Everything here is deterministic: fixed element orderings, fixed labels,
fixed instance names.  The CLI `corpus` command serializes these catalogs;
the acceptance tests iterate them directly.
"""

from __future__ import annotations

from functools import cache

from .groups import FiniteGroup, cyclic_group, subgroup, symmetric_group_3
from .isomorphism import enumerate_pointed_racks
from .racks import (
    FiniteRack,
    UnpointedRack,
    adjoin_basepoint,
    conj_hom,
    conj_rack,
    constant_rack_hom,
    inclusion_rack_hom,
    trivial_rack,
    validate_rack,
    validate_unpointed_rack,
)
from .tables import Hom, identity_hom, validate_hom
from .xmod import (
    XMod,
    XModMorphism,
    identity_xmod,
    inclusion_group_xmod,
    inclusion_xmod,
    validate_xmod_morphism,
)

A3_IN_S3 = (0, 3, 4)
"""Indices of the even permutations in the canonical S3 element order."""


@cache
def groups() -> dict[str, FiniteGroup]:
    s3 = symmetric_group_3()
    a3, _ = subgroup(s3, A3_IN_S3)
    return {
        "z2": cyclic_group(2),
        "z3": cyclic_group(3),
        "z4": cyclic_group(4),
        "z6": cyclic_group(6),
        "s3": s3,
        "a3": a3,
    }


@cache
def group_homs() -> dict[str, Hom]:
    g = groups()
    s3, z2, z3, z4, z6, a3 = g["s3"], g["z2"], g["z3"], g["z4"], g["z6"], g["a3"]
    _, incl_a3 = subgroup(s3, A3_IN_S3)
    sgn = validate_hom(s3, z2, [0, 1, 1, 0, 0, 1])
    return {
        "sgn": sgn,
        "incl_a3_s3": incl_a3,
        "z3_to_s3": validate_hom(z3, s3, [0, 3, 4]),
        "z2_to_s3": validate_hom(z2, s3, [0, 2]),
        "z4_mod2": validate_hom(z4, z2, [0, 1, 0, 1]),
        "z6_mod2": validate_hom(z6, z2, [0, 1, 0, 1, 0, 1]),
        "z6_mod3": validate_hom(z6, z3, [0, 1, 2, 0, 1, 2]),
        "z2_to_z4": validate_hom(z2, z4, [0, 2]),
        "z3_to_z6": validate_hom(z3, z6, [0, 2, 4]),
        "z2_to_z6": validate_hom(z2, z6, [0, 3]),
        "id_z2": identity_hom(z2),
        "id_z4": identity_hom(z4),
        "id_s3": identity_hom(s3),
    }


@cache
def unpointed_racks() -> dict[str, UnpointedRack]:
    r3 = validate_unpointed_rack(
        [[(2 * j - i) % 3 for j in range(3)] for i in range(3)],
        labels=["0", "1", "2"],
    )
    return {"r3": r3}


@cache
def racks() -> dict[str, FiniteRack]:
    g = groups()
    out = {
        "t1": trivial_rack(1),
        "t2": trivial_rack(2),
        "t3": trivial_rack(3),
        # basepoint plus a two-element orbit that every non-basepoint column swaps
        "v3": validate_rack([[0, 0, 0], [1, 2, 2], [2, 1, 1]], 0),
        "cz2": conj_rack(g["z2"]),
        "cz3": conj_rack(g["z3"]),
        "cz4": conj_rack(g["z4"]),
        "cs3": conj_rack(g["s3"]),
        "r3plus": adjoin_basepoint(unpointed_racks()["r3"]),
    }
    return out


@cache
def rack_homs() -> dict[str, Hom]:
    r = racks()
    cs3, cz2, cz3, cz4, t2 = r["cs3"], r["cz2"], r["cz3"], r["cz4"], r["t2"]
    h = group_homs()
    return {
        "sgn_rack": conj_hom(h["sgn"]),
        "z3_to_s3_rack": conj_hom(h["z3_to_s3"]),
        "z2_to_s3_rack": conj_hom(h["z2_to_s3"]),
        "z4_mod2_rack": conj_hom(h["z4_mod2"]),
        "incl_a3r_cs3": inclusion_rack_hom(cs3, A3_IN_S3),
        "id_t2": identity_hom(t2),
        "id_cz2": identity_hom(cz2),
        "id_cs3": identity_hom(cs3),
        "const_t2_cs3": constant_rack_hom(t2, cs3),
        "const_t2_cz2": constant_rack_hom(t2, cz2),
        "cz2_to_t2": validate_hom(cz2, t2, [0, 1]),
        "cz3_to_cs3": conj_hom(h["z3_to_s3"]),
    }


@cache
def rack_xmods() -> dict[str, XMod]:
    r = racks()
    out: dict[str, XMod] = {}
    for name in ("t2", "cz2", "cz3", "cs3", "v3", "r3plus"):
        rack = r[name]
        out[f"point_{name}"] = inclusion_xmod([rack.basepoint], rack)
        out[f"identity_{name}"] = identity_xmod(rack)
    out["a3r_cs3"] = inclusion_xmod(A3_IN_S3, r["cs3"])
    return out


@cache
def group_xmods() -> dict[str, XMod]:
    g = groups()
    return {
        "triv_z2": inclusion_group_xmod([0], g["z2"]),
        "triv_z3": inclusion_group_xmod([0], g["z3"]),
        "triv_s3": inclusion_group_xmod([0], g["s3"]),
        "a3_s3": inclusion_group_xmod(A3_IN_S3, g["s3"]),
        "2z4_z4": inclusion_group_xmod([0, 2], g["z4"]),
        "z3_z6": inclusion_group_xmod([0, 2, 4], g["z6"]),
        "z2_z6": inclusion_group_xmod([0, 3], g["z6"]),
        "identity_z2": identity_xmod(g["z2"]),
        "identity_z3": identity_xmod(g["z3"]),
        "identity_z4": identity_xmod(g["z4"]),
        "identity_z6": identity_xmod(g["z6"]),
        "identity_s3": identity_xmod(g["s3"]),
    }


@cache
def fiber_instances() -> tuple[tuple[str, XMod, XMod], ...]:
    """Ordered pairs of crossed modules over a common base rack."""
    x = rack_xmods()
    by_base = {
        "cs3": ("point_cs3", "a3r_cs3", "identity_cs3"),
        "cz2": ("point_cz2", "identity_cz2"),
        "cz3": ("point_cz3", "identity_cz3"),
        "t2": ("point_t2", "identity_t2"),
    }
    out = []
    for base, names in by_base.items():
        for a in names:
            for b in names:
                out.append((f"{a}*{b}@{base}", x[a], x[b]))
    return tuple(out)


@cache
def pullback_instances() -> tuple[tuple[str, XMod, Hom], ...]:
    """Pairs (crossed module over R, hom into R) for the pullback sweeps."""
    x = rack_xmods()
    h = rack_homs()
    into = {
        "cz2": ("id_cz2", "sgn_rack", "z4_mod2_rack", "const_t2_cz2"),
        "cs3": ("id_cs3", "cz3_to_cs3", "z2_to_s3_rack", "incl_a3r_cs3", "const_t2_cs3"),
        "t2": ("id_t2", "cz2_to_t2"),
    }
    over = {
        "cz2": ("point_cz2", "identity_cz2"),
        "cs3": ("point_cs3", "a3r_cs3", "identity_cs3"),
        "t2": ("point_t2", "identity_t2"),
    }
    out = []
    for base in into:
        for xm_name in over[base]:
            for hom_name in into[base]:
                out.append((f"{xm_name}<-{hom_name}", x[xm_name], h[hom_name]))
    return tuple(out)


@cache
def preimage_instances() -> tuple[tuple[str, tuple[int, ...], FiniteRack, Hom], ...]:
    """(name, normal subset N of R, R, phi: S -> R) for preimage checks."""
    r = racks()
    h = rack_homs()
    return (
        ("kernel_sgn", (0,), r["cz2"], h["sgn_rack"]),
        ("a3_under_id", A3_IN_S3, r["cs3"], h["id_cs3"]),
        ("a3_under_z3", A3_IN_S3, r["cs3"], h["cz3_to_cs3"]),
        ("a3_under_z2", A3_IN_S3, r["cs3"], h["z2_to_s3_rack"]),
        ("point_under_z3", (0,), r["cs3"], h["cz3_to_cs3"]),
        ("point_under_mod2", (0,), r["cz2"], h["z4_mod2_rack"]),
        ("point_under_const", (0,), r["cs3"], h["const_t2_cs3"]),
    )


@cache
def conj_preservation_instances() -> tuple[tuple[str, XMod, Hom], ...]:
    gx = group_xmods()
    gh = group_homs()
    return (
        ("a3_s3_along_z3", gx["a3_s3"], gh["z3_to_s3"]),
        ("triv_z2_along_sgn", gx["triv_z2"], gh["sgn"]),
        ("identity_z4_along_z2", gx["identity_z4"], gh["z2_to_z4"]),
        ("2z4_along_id", gx["2z4_z4"], gh["id_z4"]),
        ("triv_s3_along_z3", gx["triv_s3"], gh["z3_to_s3"]),
        ("z2_z6_along_z3", gx["z2_z6"], gh["z3_to_z6"]),
        ("identity_s3_along_id", gx["identity_s3"], gh["id_s3"]),
    )


@cache
def xmod_adjunction_pairs() -> tuple[tuple[str, XMod, XMod], ...]:
    x = rack_xmods()
    gx = group_xmods()
    return (
        ("point_t2/identity_z2", x["point_t2"], gx["identity_z2"]),
        ("a3r_cs3/a3_s3", x["a3r_cs3"], gx["a3_s3"]),
        ("point_cz2/triv_z2", x["point_cz2"], gx["triv_z2"]),
        ("identity_t2/identity_z2", x["identity_t2"], gx["identity_z2"]),
        ("identity_cz2/identity_z2", x["identity_cz2"], gx["identity_z2"]),
        ("point_cz3/triv_z3", x["point_cz3"], gx["triv_z3"]),
        ("identity_cs3/identity_s3", x["identity_cs3"], gx["identity_s3"]),
    )


@cache
def adjunction_pairs() -> tuple[tuple[str, FiniteRack, FiniteGroup], ...]:
    """Every pointed rack of order <= 3 against each of four groups."""
    g = groups()
    out = []
    small = [rk for n in (1, 2, 3) for rk in enumerate_pointed_racks(n)]
    for i, rk in enumerate(small):
        for gname in ("z2", "z3", "z4", "s3"):
            out.append((f"rack{rk.size}.{i}/{gname}", rk, g[gname]))
    return tuple(out)


@cache
def slice_morphism_corpus() -> tuple[tuple[str, XModMorphism, XModMorphism, Hom], ...]:
    """Composable pairs of base-fixing morphisms, with a hom to pull back along."""
    x = rack_xmods()
    h = rack_homs()
    r = racks()
    cs3 = r["cs3"]
    point_cs3, a3r_cs3, ident_cs3 = x["point_cs3"], x["a3r_cs3"], x["identity_cs3"]
    id_cs3 = identity_hom(cs3)
    m1 = validate_xmod_morphism(
        constant_rack_hom(point_cs3.dom, a3r_cs3.dom), id_cs3, point_cs3, a3r_cs3
    )
    m2 = validate_xmod_morphism(a3r_cs3.boundary, id_cs3, a3r_cs3, ident_cs3)
    cz2 = r["cz2"]
    point_cz2, ident_cz2 = x["point_cz2"], x["identity_cz2"]
    id_cz2 = identity_hom(cz2)
    n1 = validate_xmod_morphism(
        constant_rack_hom(point_cz2.dom, ident_cz2.dom), id_cz2, point_cz2, ident_cz2
    )
    n2 = validate_xmod_morphism(identity_hom(cz2), id_cz2, ident_cz2, ident_cz2)
    return (
        ("cs3_chain", m1, m2, h["cz3_to_cs3"]),
        ("cs3_chain_along_id", m1, m2, h["id_cs3"]),
        ("cz2_chain", n1, n2, h["sgn_rack"]),
        ("cz2_chain_along_mod2", n1, n2, h["z4_mod2_rack"]),
    )


@cache
def group_morphism_corpus() -> tuple[tuple[str, XModMorphism], ...]:
    gx = group_xmods()
    g = groups()
    gh = group_homs()
    triv_s3, a3_s3, ident_s3 = gx["triv_s3"], gx["a3_s3"], gx["identity_s3"]
    trivial_to_a3 = validate_hom(triv_s3.dom, a3_s3.dom, [0])
    m1 = validate_xmod_morphism(trivial_to_a3, gh["id_s3"], triv_s3, a3_s3)
    m2 = validate_xmod_morphism(a3_s3.boundary, gh["id_s3"], a3_s3, ident_s3)
    ident_z2 = gx["identity_z2"]
    m3 = validate_xmod_morphism(
        identity_hom(g["z2"]), identity_hom(g["z2"]), ident_z2, ident_z2
    )
    m4 = validate_xmod_morphism(
        gx["triv_z2"].boundary, identity_hom(g["z2"]), gx["triv_z2"], ident_z2
    )
    return (("triv_to_a3", m1), ("a3_to_identity", m2), ("id_z2", m3), ("triv_to_id_z2", m4))

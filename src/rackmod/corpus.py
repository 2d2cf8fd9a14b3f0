"""The built-in catalogs of small structures, and the pullback requests the benchmark reads.

Everything here is deterministic: fixed element orderings, fixed labels,
fixed instance names.  The seven catalogs (``groups`` through
``group_xmods``) are what the CLI `corpus` command writes;
``pullback_instances`` and ``conj_preservation_instances`` are the two
request lists that perfbench reads.
"""

from __future__ import annotations

from functools import cache

from .groups import FiniteGroup, cyclic_group, symmetric_group_3
from .racks import (
    FiniteRack,
    UnpointedRack,
    adjoin_basepoint,
    conj_hom,
    conj_rack,
    constant_rack_hom,
    substructure,
    trivial_rack,
    validate_rack,
    validate_unpointed_rack,
)
from .tables import Hom, identity_hom, validate_hom
from .xmod import XMod, identity_xmod, inclusion_xmod

A3_IN_S3 = (0, 3, 4)
"""Indices of the even permutations in the canonical S3 element order."""


@cache
def groups() -> dict[str, FiniteGroup]:
    s3 = symmetric_group_3()
    return {
        "z2": cyclic_group(2),
        "z3": cyclic_group(3),
        "z4": cyclic_group(4),
        "z6": cyclic_group(6),
        "s3": s3,
        "a3": substructure(s3, A3_IN_S3).dom,
    }


@cache
def group_homs() -> dict[str, Hom]:
    g = groups()
    s3, z2, z3, z4, z6, a3 = g["s3"], g["z2"], g["z3"], g["z4"], g["z6"], g["a3"]
    sgn = validate_hom(s3, z2, [0, 1, 1, 0, 0, 1])
    return {
        "sgn": sgn,
        "incl_a3_s3": substructure(s3, A3_IN_S3),
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
        "incl_a3r_cs3": substructure(cs3, A3_IN_S3),
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
        "triv_z2": inclusion_xmod([0], g["z2"]),
        "triv_z3": inclusion_xmod([0], g["z3"]),
        "triv_s3": inclusion_xmod([0], g["s3"]),
        "a3_s3": inclusion_xmod(A3_IN_S3, g["s3"]),
        "2z4_z4": inclusion_xmod([0, 2], g["z4"]),
        "z3_z6": inclusion_xmod([0, 2, 4], g["z6"]),
        "z2_z6": inclusion_xmod([0, 3], g["z6"]),
        "identity_z2": identity_xmod(g["z2"]),
        "identity_z3": identity_xmod(g["z3"]),
        "identity_z4": identity_xmod(g["z4"]),
        "identity_z6": identity_xmod(g["z6"]),
        "identity_s3": identity_xmod(g["s3"]),
    }


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

"""Actions, the pair-rack construction, and crossed modules of both flavors."""

import hashlib

import pytest

from rackmod import (
    compose_xmod_morphisms,
    conj_xmod,
    conj_xmod_morphism,
    conjugation_action,
    find_xmod_isomorphism,
    hemi_semidirect,
    identity_hom,
    identity_xmod,
    identity_xmod_morphism,
    inclusion_group_xmod,
    inclusion_xmod,
    product_rack,
    trivial_action,
    validate_action,
    validate_hom,
    validate_xmod,
    validate_xmod_morphism,
)
from rackmod import corpus
from rackmod import racks as racks_module
from rackmod import xmod as xmod_module
from rackmod.errors import (
    ActionAxiom1Fail,
    ActionAxiom2Fail,
    ActionSquareFail,
    AutomorphismFail,
    AxiomError,
    BasepointMissing,
    BoundarySquareFail,
    EquivarianceFail,
    GroupActionFail,
    NotNormal,
    PeifferFail,
    PointednessFail,
    ResultNotRack,
    X1Fail,
    X2Fail,
)


def test_trivial_and_conjugation_actions(racks):
    cs3 = racks["cs3"]
    assert trivial_action(racks["t2"], cs3).act(1, 4) == 1
    assert conjugation_action(cs3).table == cs3.table


def test_action_pointedness_failures(racks):
    t2 = racks["t2"]
    with pytest.raises(PointednessFail) as exc:
        validate_action([[0, 1], [1, 1]], t2, t2)
    assert exc.value.side == "absorb"
    with pytest.raises(PointednessFail) as exc:
        validate_action([[0, 0], [0, 1]], t2, t2)
    assert exc.value.side == "unit"


def test_action_law_failures(racks):
    cs3, t2 = racks["cs3"], racks["t2"]
    # acting by a transposition with an order-3 translation breaks exchange
    table = [[0] * 6, [1, 1, 1, 2, 1, 1], [2, 2, 2, 1, 2, 2]]
    v3 = racks["v3"]
    with pytest.raises((ActionAxiom1Fail, ActionAxiom2Fail)):
        validate_action(table, v3, cs3)


def test_validate_action_refuses_groups(racks, groups, group_xmods):
    for gx in group_xmods.values():
        with pytest.raises(ValueError, match="pointed racks on both sides"):
            validate_action(gx.action, gx.dom, gx.cod)
    with pytest.raises(ValueError, match="pointed racks on both sides"):
        validate_action(racks["cs3"].table, racks["cs3"], groups["s3"])


def test_action_laws_do_not_force_bijective_translations(racks):
    """The collapsing action below satisfies every action law."""
    t2 = racks["t2"]
    action = validate_action([[0, 0], [1, 0]], t2, t2)
    column = [action.act(s, 1) for s in range(2)]
    assert column == [0, 0]


def test_hemi_semidirect_rejects_collapsing_actions(racks):
    t2 = racks["t2"]
    action = validate_action([[0, 0], [1, 0]], t2, t2)
    with pytest.raises(ResultNotRack) as exc:
        hemi_semidirect(action)
    assert exc.value.witness == (1, 0, 2)


def test_hemi_semidirect_of_trivial_action_on_point(racks):
    # with a one-element actee the pair rack is the actor itself
    for name in ("cz2", "cs3", "v3"):
        rack = racks[name]
        built = hemi_semidirect(trivial_action(racks["t1"], rack))
        assert built.table == product_rack(racks["t1"], rack).table
        assert built.table == rack.table


def test_hemi_semidirect_of_conjugation_action(racks):
    cs3 = racks["cs3"]
    built = hemi_semidirect(conjugation_action(cs3))
    assert built.size == 36
    # (s, r) <| (s', r') = (s <| r', r <| r') regardless of s'
    s, r, sp, rp = 1, 3, 4, 5
    out = built.table[s * 6 + r][sp * 6 + rp]
    assert out == cs3.table[s][rp] * 6 + cs3.table[r][rp]


def test_validate_rack_xmod_checks_peiffer_before_equivariance(racks):
    cs3 = racks["cs3"]
    with pytest.raises(X2Fail) as exc:
        validate_xmod(identity_hom(cs3), trivial_action(cs3, cs3).table)
    assert exc.value.witness == (1, 2)


def test_validate_rack_xmod_x1_witness(racks):
    # boundary hits a transposition, trivial action: X2 holds, X1 cannot
    t2, cs3 = racks["t2"], racks["cs3"]
    boundary = validate_hom(t2, cs3, [0, 1])
    with pytest.raises(X1Fail) as exc:
        validate_xmod(boundary, trivial_action(t2, cs3).table)
    assert exc.value.witness == (1, 2)


def test_validate_rack_xmod_endpoint_mismatch(racks):
    """A table with t2's rows does not fit a boundary out of cs3."""
    with pytest.raises(ValueError, match="action table has 2 rows, expected 6"):
        validate_xmod(
            identity_hom(racks["cs3"]), trivial_action(racks["t2"], racks["cs3"]).table
        )


def test_inclusion_xmod(racks):
    xm = inclusion_xmod([0, 3, 4], racks["cs3"])
    assert xm.dom.size == 3
    assert xm.boundary.map == (0, 3, 4)
    # action is conjugation inside the big rack, rewritten on the subset
    assert xm.act(1, 1) == 2
    with pytest.raises(NotNormal) as exc:
        inclusion_xmod([0, 2], racks["cs3"])
    assert exc.value.witness == (2, 1, 5)


def test_inclusion_xmod_validates_the_subrack_once(monkeypatch, racks):
    calls = []
    real = racks_module.validate_rack

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(racks_module, "validate_rack", counting)
    monkeypatch.setattr(xmod_module, "validate_rack", counting)
    xm = inclusion_xmod([0, 3, 4], racks["cs3"])
    assert len(calls) == 1
    assert xm.boundary.map == (0, 3, 4)


def test_inclusion_xmod_errors(racks):
    cs3 = racks["cs3"]
    # {(12)} is not normal either; the missing basepoint is reported first
    with pytest.raises(BasepointMissing):
        inclusion_xmod([2], cs3)
    with pytest.raises(NotNormal):
        inclusion_xmod([0, 2], cs3)
    with pytest.raises(ValueError):
        inclusion_xmod([0, 6], cs3)


def test_identity_xmod(racks):
    xm = identity_xmod(racks["cs3"])
    assert xm.boundary.map == (0, 1, 2, 3, 4, 5)
    assert xm.action == racks["cs3"].table


def test_xmod_morphism_squares(rack_xmods, racks):
    point, incl, ident = (
        rack_xmods["point_cs3"],
        rack_xmods["a3r_cs3"],
        rack_xmods["identity_cs3"],
    )
    id_cs3 = identity_hom(racks["cs3"])
    m = validate_xmod_morphism(incl.boundary, id_cs3, incl, ident)
    assert m.f1.map == (0, 3, 4)
    # composing with the identity morphism changes nothing
    comp = compose_xmod_morphisms(m, identity_xmod_morphism(ident))
    assert comp.f1.map == m.f1.map
    bad = validate_hom(incl.dom, ident.dom, [0, 4, 3])
    with pytest.raises((BoundarySquareFail, ActionSquareFail)):
        validate_xmod_morphism(bad, id_cs3, incl, ident)


def test_find_xmod_isomorphism(rack_xmods):
    incl = rack_xmods["a3r_cs3"]
    iso = find_xmod_isomorphism(incl, incl)
    assert iso is not None
    assert iso.f1.map == (0, 1, 2)
    assert iso.f0.map == (0, 1, 2, 3, 4, 5)
    assert find_xmod_isomorphism(incl, rack_xmods["identity_cs3"]) is None


def test_group_xmod_validation(groups, group_xmods):
    a3s3 = group_xmods["a3_s3"]
    assert a3s3.dom.size == 3 and a3s3.cod.size == 6
    # conjugating (123) by (23) gives (132)
    assert a3s3.act(1, 1) == 2


def test_group_xmod_action_failures(groups):
    z2, z3, z4, s3 = groups["z2"], groups["z3"], groups["z4"], groups["s3"]
    incl = validate_hom(z2, z4, [0, 2])
    with pytest.raises(AutomorphismFail):
        validate_xmod(incl, [[0, 0, 0, 0], [0, 0, 0, 0]])
    # both columns negate, which is an automorphism, but 0 must act as id
    collapse = validate_hom(z3, z2, [0, 0, 0])
    with pytest.raises(GroupActionFail) as exc:
        validate_xmod(collapse, [[0, 0], [2, 2], [1, 1]])
    assert exc.value.witness == (1, 0)
    # trivial action, but the boundary image is not central in S3
    j = validate_hom(z2, s3, [0, 2])
    with pytest.raises(EquivarianceFail) as exc:
        validate_xmod(j, [[0] * 6, [1] * 6])
    assert exc.value.witness == (1, 1)
    # twisting by an inner automorphism keeps every law except Peiffer
    sgn = validate_hom(s3, z2, [0, 1, 1, 0, 0, 1])
    twist = [[m, s3.conj(m, 2)] for m in range(6)]
    with pytest.raises(PeifferFail) as exc:
        validate_xmod(sgn, twist)
    assert exc.value.witness == (1, 1)
    # S3 acting trivially on itself: an action by automorphisms that breaks
    # both equivariance and Peiffer, and equivariance is checked first
    ident, trivial = identity_hom(s3), [[m] * 6 for m in range(6)]
    assert trivial[1][ident.map[2]] != s3.conj(1, 2)
    with pytest.raises(EquivarianceFail) as exc:
        validate_xmod(ident, trivial)
    assert exc.value.witness == (1, 2)


def test_group_xmod_laws_refuse_racks(rack_xmods):
    xm = rack_xmods["a3r_cs3"]
    with pytest.raises(ValueError, match="groups on both sides"):
        xmod_module.validate_group_xmod(xm.boundary, xm.action)


def test_inclusion_group_xmod(groups):
    with pytest.raises(NotNormal):
        inclusion_group_xmod([0, 2], groups["s3"])
    xm = inclusion_group_xmod([0, 3, 4], groups["s3"])
    assert xm.boundary.map == (0, 3, 4)
    assert identity_xmod(groups["z4"]).act(1, 3) == 1


def test_group_xmod_morphism_and_composition(groups, group_xmods, group_homs):
    triv, a3s3, ident = (
        group_xmods["triv_s3"],
        group_xmods["a3_s3"],
        group_xmods["identity_s3"],
    )
    up = validate_xmod_morphism(
        validate_hom(triv.dom, a3s3.dom, [0]), group_homs["id_s3"], triv, a3s3
    )
    down = validate_xmod_morphism(
        a3s3.boundary, group_homs["id_s3"], a3s3, ident
    )
    both = compose_xmod_morphisms(up, down)
    assert both.f1.map == (0,)
    with pytest.raises(ValueError):
        compose_xmod_morphisms(down, down)


def test_conj_xmod_matches_the_rack_side_inclusion(group_xmods, rack_xmods):
    built = conj_xmod(group_xmods["a3_s3"])
    direct = rack_xmods["a3r_cs3"]
    assert built.boundary.map == direct.boundary.map
    assert built.action == direct.action
    assert built.dom.table == direct.dom.table


def test_conj_xmod_morphism(groups, group_xmods, group_homs):
    triv, ident = group_xmods["triv_z2"], group_xmods["identity_z2"]
    m = validate_xmod_morphism(
        triv.boundary, group_homs["id_z2"], triv, ident
    )
    rm = conj_xmod_morphism(m)
    assert rm.f1.map == m.f1.map
    assert rm.f0.map == m.f0.map


def test_conj_xmod_morphism_builds_each_conjugation_rack_once(monkeypatch):
    """Conj A3 and Conj S3 for the source, Conj S3 twice for the target:
    f1 and f0 are validated between those racks, not between rebuilt ones."""
    m = dict(corpus.group_morphism_corpus())["a3_to_identity"]
    sizes = []
    real = racks_module.validate_rack

    def counting(table, *args, **kwargs):
        sizes.append(len(table))
        return real(table, *args, **kwargs)

    for module in (racks_module, xmod_module):
        monkeypatch.setattr(module, "validate_rack", counting)
    rm = conj_xmod_morphism(m)
    assert sorted(sizes) == [3, 6, 6, 6]
    assert (rm.f1.map, rm.f0.map) == (m.f1.map, m.f0.map)


def test_validate_xmod_reads_the_law_family_from_the_boundary(rack_xmods, group_xmods):
    for name, xm in {**rack_xmods, **group_xmods}.items():
        assert validate_xmod(xm.boundary, xm.action) == xm, name


def _action_mutations():
    """Every corpus crossed module as it is, then with one action cell set
    to each other element of its carrier."""
    for kind, catalog in (("rack", corpus.rack_xmods()), ("group", corpus.group_xmods())):
        for name, xm in catalog.items():
            yield kind, name, xm, None, None, xm.action
            for r, row in enumerate(xm.action):
                for s, old in enumerate(row):
                    for value in xm.dom.elements():
                        if value != old:
                            table = [list(t) for t in xm.action]
                            table[r][s] = value
                            yield kind, name, xm, (r, s), value, table


# Pinned with the two validators that validate_xmod replaced, before their
# law families moved under it: validate_action followed by
# validate_rack_xmod(boundary, RackAction) for racks, and
# validate_group_xmod(boundary, table) returning an XMod for groups.
MUTATION_DIGEST = "c6080c6d4ab87017aadea5cfb2b0b5725d98d9d217922c584c876d007a657db0"


def test_validate_xmod_keeps_the_first_failure_of_every_mutated_action():
    """Same class, law, message and witness on every one-cell mutation."""
    digest = hashlib.sha256()
    cases = 0
    for kind, name, xm, cell, value, table in _action_mutations():
        try:
            validate_xmod(xm.boundary, table)
            outcome = (None, None, None, None)
        except AxiomError as exc:
            outcome = (type(exc).__name__, exc.law, str(exc), exc.witness)
        digest.update(repr((kind, name, cell, value) + outcome).encode())
        cases += 1
    assert cases == 855
    assert digest.hexdigest() == MUTATION_DIGEST

"""Rack axioms, the group-derived constructions, subracks, and soundness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackmod import (
    adjoin_basepoint,
    compose_homs,
    conj_hom,
    conj_rack,
    constant_rack_hom,
    core_rack,
    cyclic_group,
    identity_hom,
    identity_xmod,
    is_normal_subrack,
    kernel,
    product_projections,
    product_rack,
    rack_orbits,
    substructure,
    trivial_rack,
    validate_hom,
    validate_rack,
    validate_unpointed_rack,
)
from rackmod import corpus
from rackmod.errors import (
    AxiomError,
    BasepointMissing,
    HomBasepointFail,
    HomLawFail,
    NonBijectiveColumn,
    NotPointed,
    SelfDistributivityFail,
)

DIHEDRAL3 = [[(2 * j - i) % 3 for j in range(3)] for i in range(3)]


def test_trivial_rack():
    t3 = trivial_rack(3)
    assert t3.table == ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    assert t3.basepoint == 0


def test_v3_is_a_pointed_rack():
    v3 = validate_rack([[0, 0, 0], [1, 2, 2], [2, 1, 1]], 0)
    assert v3.op(1, 1) == 2
    assert v3.op(v3.op(1, 1), 2) == v3.op(v3.op(1, 2), v3.op(1, 2))


def test_column_bijectivity_witness():
    with pytest.raises(NonBijectiveColumn) as exc:
        validate_rack([[0, 0], [1, 0]], 0)
    assert exc.value.witness == (1, 0, 1)


def test_self_distributivity_witness():
    # columns of the Z2 addition table are bijections but (0<|0)<|1 breaks
    with pytest.raises(SelfDistributivityFail) as exc:
        validate_rack([[0, 1], [1, 0]], 0)
    assert exc.value.witness == (0, 0, 1)


def test_dihedral_rack_is_unpointed_only():
    r3 = validate_unpointed_rack(DIHEDRAL3)
    assert r3.op(0, 1) == 2
    with pytest.raises(NotPointed) as exc:
        validate_rack(DIHEDRAL3, 0)
    assert exc.value.witness == (1, 2)
    assert exc.value.side == "absorb"


def test_validate_rack_rejects_bad_shapes():
    with pytest.raises(ValueError):
        validate_rack([[0, 0], [1]], 0)
    with pytest.raises(ValueError):
        validate_rack([[0, 2], [1, 0]], 0)
    with pytest.raises(ValueError):
        validate_rack([[0]], 1)


def test_conj_rack_of_s3(racks):
    cs3 = racks["cs3"]
    assert cs3.basepoint == 0
    # (13)^-1 (12) (13) = (23)
    assert cs3.table[2][5] == 1
    assert cs3.label(5) == "(13)"


def test_conj_rack_of_cyclic_groups_is_trivial():
    for n in range(1, 6):
        assert conj_rack(cyclic_group(n)).table == trivial_rack(n).table


def test_conj_hom_carries_the_group_map(group_homs):
    rh = conj_hom(group_homs["sgn"])
    assert rh.map == (0, 1, 1, 0, 0, 1)


def test_core_rack_of_s3(groups):
    core = core_rack(groups["s3"])
    # e <| b = b^2, so squaring a 3-cycle lands on the other one
    assert core.table[0][3] == 4
    with pytest.raises(NotPointed):
        validate_rack([list(r) for r in core.table], 0)


def test_product_rack_and_projections(racks):
    prod = product_rack(racks["cs3"], racks["t2"])
    assert prod.size == 12
    assert prod.basepoint == 0
    proj1, proj2 = product_projections(racks["cs3"], racks["t2"])
    # pair (a, b) sits at a * 2 + b
    assert proj1.map[7] == 3 and proj2.map[7] == 1
    assert prod.label(7) == "((123),1)"


def test_adjoin_basepoint(racks):
    plus = adjoin_basepoint(validate_unpointed_rack(DIHEDRAL3, labels=["a", "b", "c"]))
    assert plus.size == 4
    assert plus.basepoint == 3
    assert plus.label(3) == "*"
    for a in range(4):
        assert plus.op(a, 3) == a
        assert plus.op(3, a) == 3
    assert plus.table == racks["r3plus"].table


def test_restrict_rack_and_inclusion(racks):
    incl = substructure(racks["cs3"], [0, 3, 4])
    assert incl.dom.labels == ("e", "(123)", "(132)")
    assert incl.dom.table == trivial_rack(3).table
    assert incl.map == (0, 3, 4)
    assert incl.cod is racks["cs3"]


def test_restrict_rack_failures(racks):
    cs3 = racks["cs3"]
    with pytest.raises(ValueError, match="basepoint"):
        substructure(cs3, [3, 4])
    with pytest.raises(ValueError, match="closed"):
        substructure(cs3, [0, 1, 3])


def test_is_normal_subrack(racks):
    cs3 = racks["cs3"]
    assert is_normal_subrack([0, 3, 4], cs3).ok
    check = is_normal_subrack([0, 2], cs3)
    assert not check.ok
    assert check.witness == (2, 1, 5)
    with pytest.raises(BasepointMissing):
        is_normal_subrack([1, 2], cs3)
    with pytest.raises(BasepointMissing):
        is_normal_subrack([], cs3)


def test_kernel_of_the_sign_hom(rack_homs):
    k = kernel(rack_homs["sgn_rack"])
    assert k.map == (0, 3, 4)
    assert k.cod is rack_homs["sgn_rack"].dom


def test_rack_orbits(racks):
    assert rack_orbits(racks["cs3"]) == ((0,), (1, 2, 5), (3, 4))
    assert rack_orbits(racks["t3"]) == ((0,), (1,), (2,))


def test_rack_hom_validation(racks):
    t2, cs3 = racks["t2"], racks["cs3"]
    maps = [(0, b) for b in range(6)]
    for m in maps:
        validate_hom(t2, cs3, m)
    assert identity_hom(cs3).map == (0, 1, 2, 3, 4, 5)
    assert constant_rack_hom(cs3, t2).map == (0,) * 6


def test_rack_hom_failures(racks):
    v3 = racks["v3"]
    with pytest.raises(HomBasepointFail):
        validate_hom(racks["t2"], racks["t2"], [1, 1])
    with pytest.raises(HomLawFail) as exc:
        validate_hom(v3, v3, [0, 1, 1])
    assert exc.value.witness == (1, 1)



def test_homs_refuse_unpointed_racks():
    """A hom keeps the distinguished element, which an unpointed rack lacks."""
    r3 = corpus.unpointed_racks()["r3"]
    for call in (lambda: validate_hom(r3, r3, [0, 1, 2]), lambda: identity_hom(r3), lambda: identity_xmod(r3)):
        with pytest.raises(ValueError, match="pointed racks or groups, not UnpointedRacks"):
            call()

def test_compose_rack_homs(racks, rack_homs):
    incl = rack_homs["incl_a3r_cs3"]
    comp = compose_homs(incl, rack_homs["sgn_rack"])
    assert comp.map == (0, 0, 0)
    with pytest.raises(ValueError):
        compose_homs(rack_homs["sgn_rack"], rack_homs["sgn_rack"])


# -- validator soundness -----------------------------------------------------


@st.composite
def square_tables(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    bp = draw(st.integers(0, n - 1))
    return rows, bp


@settings(max_examples=300, deadline=None)
@given(square_tables())
def test_validate_rack_is_sound(case):
    """Acceptance means every law holds; rejection carries a real witness."""
    table, bp = case
    n = len(table)
    try:
        rack = validate_rack(table, bp)
    except NonBijectiveColumn as e:
        b, x, y = e.witness
        assert x != y and table[x][b] == table[y][b]
        return
    except SelfDistributivityFail as e:
        a, b, c = e.witness
        assert table[table[a][b]][c] != table[table[a][c]][table[b][c]]
        return
    except NotPointed as e:
        a, got = e.witness
        if e.side == "absorb":
            assert table[bp][a] == got != bp
        else:
            assert table[a][bp] == got != a
        return
    assert rack.size == n
    for b in range(n):
        assert sorted(table[a][b] for a in range(n)) == list(range(n))
    for a in range(n):
        assert table[bp][a] == bp and table[a][bp] == a
        for b in range(n):
            for c in range(n):
                assert table[table[a][b]][c] == table[table[a][c]][table[b][c]]


@settings(max_examples=200, deadline=None)
@given(square_tables())
def test_failures_are_axiom_errors_with_tuple_witnesses(case):
    table, bp = case
    try:
        validate_rack(table, bp)
    except AxiomError as e:
        assert isinstance(e.witness, tuple)

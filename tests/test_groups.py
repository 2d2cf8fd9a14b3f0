"""Group tables, the fixed S3 conventions, and validator witnesses."""

import pytest

from rackmod import (
    compose_homs,
    conjugacy_classes,
    cyclic_group,
    identity_hom,
    subgroup,
    symmetric_group_3,
    validate_group,
    validate_hom,
)
from rackmod.errors import (
    AssociativityFail,
    HomBasepointFail,
    HomLawFail,
    IdentityFail,
    InverseFail,
)


def test_cyclic_group_tables():
    z4 = cyclic_group(4)
    assert z4.mul[3][2] == 1
    assert z4.inv == (0, 3, 2, 1)
    assert z4.label(3) == "3"


def test_cyclic_group_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        cyclic_group(0)


def test_s3_element_order_and_labels():
    s3 = symmetric_group_3()
    assert s3.labels == ("e", "(23)", "(12)", "(123)", "(132)", "(13)")
    assert s3.identity == 0
    assert s3.size == 6


def test_s3_multiplication_is_apply_left_then_right():
    s3 = symmetric_group_3()
    # (12) then (23) sends 0 -> 1 -> 2, so the product is the 3-cycle (132)
    assert s3.mul[2][1] == 4
    assert s3.mul[1][2] == 3


def test_s3_conjugation_convention():
    s3 = symmetric_group_3()
    # (13)^-1 (12) (13) = (23)
    assert s3.conj(2, 5) == 1
    assert s3.inv[3] == 4


def test_validate_group_reports_first_associativity_witness():
    s3 = symmetric_group_3()
    mul = [list(row) for row in s3.mul]
    mul[1][1] = 1
    with pytest.raises(AssociativityFail) as exc:
        validate_group(mul, 0)
    assert exc.value.witness == (1, 1, 2)


def test_validate_group_identity_failure():
    with pytest.raises(IdentityFail) as exc:
        validate_group([[0, 1], [1, 0]], 1)
    assert exc.value.witness == (0,)


def test_validate_group_inverse_failure():
    # 1*x == 1 for every x, so 1 has no inverse; everything earlier holds
    with pytest.raises(InverseFail) as exc:
        validate_group([[0, 1], [1, 1]], 0)
    assert exc.value.witness == (1,)


def test_validate_group_rejects_ragged_table():
    with pytest.raises(ValueError):
        validate_group([[0, 1], [1]], 0)


def test_subgroup_inclusion_and_closure():
    s3 = symmetric_group_3()
    a3, incl = subgroup(s3, [0, 3, 4])
    assert a3.size == 3
    assert incl.map == (0, 3, 4)
    assert a3.labels == ("e", "(123)", "(132)")
    with pytest.raises(ValueError):
        subgroup(s3, [0, 1, 3])
    with pytest.raises(ValueError):
        subgroup(s3, [3, 4])


def test_conjugacy_classes_of_s3():
    assert conjugacy_classes(symmetric_group_3()) == ((0,), (1, 2, 5), (3, 4))


def test_group_hom_validation(groups):
    z4, z2 = groups["z4"], groups["z2"]
    mod2 = validate_hom(z4, z2, [0, 1, 0, 1])
    assert mod2(3) == 1
    assert identity_hom(z2).map == (0, 1)


def test_group_hom_failures(groups):
    z4, z2 = groups["z4"], groups["z2"]
    with pytest.raises(HomBasepointFail):
        validate_hom(z2, z2, [1, 0])
    with pytest.raises(HomLawFail) as exc:
        validate_hom(z4, z2, [0, 0, 1, 0])
    assert exc.value.witness == (1, 1)


def test_compose_group_homs(group_homs):
    comp = compose_homs(group_homs["z3_to_s3"], group_homs["sgn"])
    assert comp.map == (0, 0, 0)
    with pytest.raises(ValueError):
        compose_homs(group_homs["sgn"], group_homs["sgn"])


def test_groups_answer_to_the_shared_names(groups, racks):
    """Racks and groups share one hom type, so a hom may not mix the two."""
    s3 = groups["s3"]
    assert s3.table is s3.mul and s3.basepoint == s3.identity
    assert s3.op(1, 2) == s3.mul[1][2]
    with pytest.raises(ValueError, match="a FiniteRack and a FiniteGroup"):
        validate_hom(racks["cz2"], groups["z2"], [0, 1])
    with pytest.raises(ValueError, match="a FiniteGroup and a FiniteRack"):
        validate_hom(groups["z2"], racks["cz2"], [0, 1])

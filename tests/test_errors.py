"""Every law failure keeps its law, message and witness."""

import hashlib

from rackmod import errors
from rackmod.errors import AxiomError

CAUSE = errors.SelfDistributivityFail(1, 2, 0)

# one call per class, and one per form of the classes with two forms
CASES = [
    ("NonBijectiveColumn", (2, 0, 1)),
    ("SelfDistributivityFail", (1, 2, 0)),
    ("NotPointed", (3, 1, "absorb")),
    ("NotPointed", (3, 2, "unit")),
    ("BasepointMissing", ()),
    ("BasepointMissing", ("the subset misses 0",)),
    ("NotNormal", (1, 4, 5)),
    ("IdentityFail", (3,)),
    ("AssociativityFail", (1, 2, 3)),
    ("InverseFail", (4,)),
    ("HomLawFail", (1, 2)),
    ("HomBasepointFail", (0, 1)),
    ("ActionAxiom1Fail", (1, 2, 3)),
    ("ActionAxiom2Fail", (2, 3, 1)),
    ("PointednessFail", (0, 2, 1, "absorb")),
    ("PointednessFail", (3, 0, 1, "unit")),
    ("X1Fail", (2, 5)),
    ("X2Fail", (1, 3)),
    ("AutomorphismFail", (2, 1, 3, "not injective")),
    ("GroupActionFail", (1, 0, None)),
    ("GroupActionFail", (1, 2, 3)),
    ("EquivarianceFail", (2, 4)),
    ("PeifferFail", (3, 1)),
    ("BoundarySquareFail", (2,)),
    ("ActionSquareFail", (1, 4)),
    ("ResultNotRack", (CAUSE,)),
    ("ConstructionFail", ("the one factorization is not the mediating map", (0, 2))),
    ("UniquenessFail", (2, ((0, 1), (0, 2)))),
    ("NoIsomorphismFound", ("no comparison",)),
    ("BijectionFail", ("rack", (0, 1, 1))),
]

# taken before the 16 classes whose witness is their arguments moved onto
# one formatting base class; recomputed over the 30 cases left when
# NotAMorphism and its case were deleted, by the module from before that
# deletion, so no other message or witness moved
DIGEST = "26b87eb6dc6cef8f75d7ce229c8faf7f2dd123e85bcb8d236b9f1ee19f22bdeb"


def _record(exc: AxiomError) -> tuple:
    extras = tuple(
        (name, getattr(exc, name))
        for name in ("side", "reason", "count", "witnesses", "column")
        if hasattr(exc, name)
    )
    cause = type(exc.cause).__name__ if hasattr(exc, "cause") else None
    return type(exc).__name__, exc.law, str(exc), exc.witness, extras, cause


def test_every_axiom_error_is_covered():
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, AxiomError) and value is not AxiomError
        and not name.startswith("_")
    }
    assert len(classes) == 26
    assert {name for name, _ in CASES} == classes


def test_law_failures_keep_their_law_message_and_witness():
    records = tuple(_record(getattr(errors, name)(*args)) for name, args in CASES)
    assert hashlib.sha256(repr(records).encode()).hexdigest() == DIGEST

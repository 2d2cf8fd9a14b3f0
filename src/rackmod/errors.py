"""Typed failures raised by the validators.

Every axiom error names its law on ``law`` and carries a tuple on
``witness``.  A validator that scans a law raises the first offending tuple
in lexicographic scan order, so callers and tests can inspect exactly which
instance of the law broke.  The other witnesses are: the least map that only
one side reaches for ``BijectionFail``, ``(count,)`` for ``UniquenessFail``,
``()`` for ``BasepointMissing`` and ``NoIsomorphismFound``, and the cause's
witness for ``ResultNotRack``.
"""

from __future__ import annotations


class RackAlgebraError(Exception):
    """Base class for everything this package raises on purpose."""


class ParseError(RackAlgebraError):
    """Malformed structure document: bad shape, field, kind, or reference."""


class BoundExceeded(RackAlgebraError):
    """An enumeration was requested above its configured bound."""


class AxiomError(RackAlgebraError):
    """An exhaustive axiom check failed; ``witness`` is the offending tuple."""

    law = "axiom"

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


class _Stated(AxiomError):
    """A failure whose witness is exactly its arguments, stated by ``template``."""

    template = ""

    def __init__(self, *witness: int):
        super().__init__(self.template.format(*witness), witness)


# ---------------------------------------------------------------- racks


class NonBijectiveColumn(_Stated):
    law = "unique-solution"
    template = "column {0} is not a bijection: {1} ◁ {0} == {2} ◁ {0}"

    @property
    def column(self) -> int:
        return self.witness[0]


class SelfDistributivityFail(_Stated):
    law = "self-distributivity"
    template = "({0} ◁ {1}) ◁ {2} != ({0} ◁ {2}) ◁ ({1} ◁ {2})"


class NotPointed(AxiomError):
    law = "pointedness"

    def __init__(self, a: int, got: int, side: str):
        msg = (
            f"basepoint is not absorbing: 1 ◁ {a} = {got} != 1"
            if side == "absorb"
            else f"basepoint does not act trivially: {a} ◁ 1 = {got} != {a}"
        )
        super().__init__(msg, (a, got))
        self.side = side


class BasepointMissing(AxiomError):
    law = "pointedness"

    def __init__(self, what: str = "subset does not contain the basepoint"):
        super().__init__(what, ())


class NotNormal(_Stated):
    law = "normality"
    template = "subset is not closed under conjugation: {0} ◁ {1} = {2} escapes"


# ---------------------------------------------------------------- groups


class IdentityFail(_Stated):
    law = "identity"
    template = "claimed identity does not fix element {0}"


class AssociativityFail(_Stated):
    law = "associativity"
    template = "({0}*{1})*{2} != {0}*({1}*{2})"


class InverseFail(_Stated):
    law = "inverses"
    template = "element {0} has no two-sided inverse"


# ---------------------------------------------------------------- homs


class HomLawFail(_Stated):
    law = "homomorphism"
    template = "map does not commute with the operation at ({0}, {1})"


class HomBasepointFail(_Stated):
    law = "homomorphism"
    template = "map sends the distinguished element {0} to {1}"


# ---------------------------------------------------------------- actions


class ActionAxiom1Fail(_Stated):
    law = "action-exchange"
    template = "({0}.{1}).{2} != ({0}.{2}).({1} ◁ {2})"


class ActionAxiom2Fail(_Stated):
    law = "action-distributivity"
    template = "({0} ◁ {1}).{2} != ({0}.{2}) ◁ ({1}.{2})"


class PointednessFail(AxiomError):
    law = "action-pointedness"

    def __init__(self, s: int, r: int, got: int, side: str):
        msg = (
            f"basepoint is not fixed by the action: {s}.{r} = {got}"
            if side == "absorb"
            else f"basepoint does not act trivially: {s}.{r} = {got} != {s}"
        )
        super().__init__(msg, (s, r, got))
        self.side = side


# ---------------------------------------------------------------- crossed modules


class X1Fail(_Stated):
    law = "boundary-equivariance"
    template = "d({0}.{1}) != d({0}) ◁ {1}"


class X2Fail(_Stated):
    law = "peiffer"
    template = "{0}.d({1}) != {0} ◁ {1}"


class AutomorphismFail(AxiomError):
    law = "action-by-automorphisms"

    def __init__(self, n: int, m: int, mp: int, reason: str):
        super().__init__(
            f"element {n} does not act as an automorphism ({reason}) at ({m}, {mp})",
            (n, m, mp),
        )
        self.reason = reason


class GroupActionFail(AxiomError):
    law = "right-action"

    def __init__(self, m: int, n: int, np: int | None):
        if np is None:
            msg = f"identity does not act trivially on {m}"
            witness: tuple = (m, n)
        else:
            msg = f"({m}.{n}).{np} != {m}.({n}*{np})"
            witness = (m, n, np)
        super().__init__(msg, witness)


class EquivarianceFail(_Stated):
    law = "boundary-equivariance"
    template = "d({0}.{1}) != {1}^-1 d({0}) {1}"


class PeifferFail(_Stated):
    law = "peiffer"
    template = "{0}.d({1}) != {1}^-1 {0} {1}"


# ---------------------------------------------------------------- morphisms


class BoundarySquareFail(_Stated):
    law = "boundary-square"
    template = "boundary square does not commute at {0}"


class ActionSquareFail(_Stated):
    law = "action-square"
    template = "action square does not commute at ({0}, {1})"


# ---------------------------------------------------------------- constructions


class ResultNotRack(AxiomError):
    law = "construction"

    def __init__(self, cause: AxiomError):
        super().__init__(f"constructed table is not a rack: {cause}", cause.witness)
        self.cause = cause


class ConstructionFail(AxiomError):
    """A construction's own consistency check failed: a bug, not bad input."""

    law = "construction"

    def __init__(self, what: str, witness: tuple):
        super().__init__(f"construction is broken: {what}", witness)


class UniquenessFail(AxiomError):
    law = "universal-property"

    def __init__(self, count: int, witnesses: tuple):
        super().__init__(
            f"expected exactly one factorization, found {count}", (count,)
        )
        self.count = count
        self.witnesses = witnesses


class NoIsomorphismFound(AxiomError):
    law = "isomorphism"

    def __init__(self, what: str):
        super().__init__(what, ())


class BijectionFail(AxiomError):
    law = "bijection"

    def __init__(self, side: str, assignment: tuple):
        super().__init__(
            f"assignment {assignment} appears on the {side} side only", assignment
        )
        self.side = side

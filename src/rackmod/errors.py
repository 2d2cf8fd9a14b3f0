"""Typed failures raised by the validators.

Every axiom error carries the first offending tuple (in lexicographic scan
order) on its ``witness`` attribute, so callers and tests can inspect exactly
which instance of a law broke.
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


# ---------------------------------------------------------------- racks


class NonBijectiveColumn(AxiomError):
    law = "unique-solution"

    def __init__(self, column: int, x: int, y: int):
        super().__init__(
            f"column {column} is not a bijection: {x} ◁ {column} == {y} ◁ {column}",
            (column, x, y),
        )
        self.column = column


class SelfDistributivityFail(AxiomError):
    law = "self-distributivity"

    def __init__(self, a: int, b: int, c: int):
        super().__init__(
            f"({a} ◁ {b}) ◁ {c} != ({a} ◁ {c}) ◁ ({b} ◁ {c})",
            (a, b, c),
        )


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


class NotNormal(AxiomError):
    law = "normality"

    def __init__(self, n: int, r: int, got: int):
        super().__init__(
            f"subset is not closed under conjugation: {n} ◁ {r} = {got} escapes",
            (n, r, got),
        )


# ---------------------------------------------------------------- groups


class IdentityFail(AxiomError):
    law = "identity"

    def __init__(self, a: int):
        super().__init__(f"claimed identity does not fix element {a}", (a,))


class AssociativityFail(AxiomError):
    law = "associativity"

    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"({a}*{b})*{c} != {a}*({b}*{c})", (a, b, c))


class InverseFail(AxiomError):
    law = "inverses"

    def __init__(self, a: int):
        super().__init__(f"element {a} has no two-sided inverse", (a,))


# ---------------------------------------------------------------- homs


class HomLawFail(AxiomError):
    law = "homomorphism"

    def __init__(self, a: int, b: int):
        super().__init__(f"map does not commute with the operation at ({a}, {b})", (a, b))


class HomBasepointFail(AxiomError):
    law = "homomorphism"

    def __init__(self, a: int, got: int):
        super().__init__(f"map sends the distinguished element {a} to {got}", (a, got))


# ---------------------------------------------------------------- actions


class ActionAxiom1Fail(AxiomError):
    law = "action-exchange"

    def __init__(self, s: int, r: int, rp: int):
        super().__init__(
            f"({s}.{r}).{rp} != ({s}.{rp}).({r} ◁ {rp})", (s, r, rp)
        )


class ActionAxiom2Fail(AxiomError):
    law = "action-distributivity"

    def __init__(self, s: int, sp: int, r: int):
        super().__init__(
            f"({s} ◁ {sp}).{r} != ({s}.{r}) ◁ ({sp}.{r})", (s, sp, r)
        )


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


class X1Fail(AxiomError):
    law = "boundary-equivariance"

    def __init__(self, r: int, s: int):
        super().__init__(f"d({r}.{s}) != d({r}) ◁ {s}", (r, s))


class X2Fail(AxiomError):
    law = "peiffer"

    def __init__(self, r: int, rp: int):
        super().__init__(f"{r}.d({rp}) != {r} ◁ {rp}", (r, rp))


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


class EquivarianceFail(AxiomError):
    law = "boundary-equivariance"

    def __init__(self, m: int, n: int):
        super().__init__(f"d({m}.{n}) != {n}^-1 d({m}) {n}", (m, n))


class PeifferFail(AxiomError):
    law = "peiffer"

    def __init__(self, m: int, mp: int):
        super().__init__(f"{m}.d({mp}) != {mp}^-1 {m} {mp}", (m, mp))


# ---------------------------------------------------------------- morphisms


class BoundarySquareFail(AxiomError):
    law = "boundary-square"

    def __init__(self, r: int):
        super().__init__(f"boundary square does not commute at {r}", (r,))


class ActionSquareFail(AxiomError):
    law = "action-square"

    def __init__(self, r: int, s: int):
        super().__init__(f"action square does not commute at ({r}, {s})", (r, s))


class NotAMorphism(AxiomError):
    law = "morphism"

    def __init__(self, cause: AxiomError):
        super().__init__(f"the supplied pair of maps is not a morphism: {cause}", cause.witness)
        self.cause = cause


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

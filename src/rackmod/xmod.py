"""Rack actions, crossed modules of racks and of groups, and their morphisms.

A right action of a pointed rack R on a pointed rack S is a table
``s . r`` satisfying the exchange law ``(s.r).r' = (s.r').(r ◁ r')``, the
distributivity law ``(s ◁ s').r = (s.r) ◁ (s'.r)``, and pointed
compatibility ``1.r = 1`` and ``s.1 = s``.  The two unpointed laws do not
force the translations ``s -> s.r`` to be bijections, so constructions that
need bijectivity re-validate their output instead of assuming it.

A crossed module of racks is a pointed rack hom d: R -> S together with an
action of S on R such that d(r.s) = d(r) ◁ s and r.d(r') = r ◁ r'.  Crossed
modules of racks and of groups are one type, ``XMod``, checked by one
validator, ``validate_xmod``, which reads the law family from the kind of
the boundary's domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ActionAxiom1Fail,
    ActionAxiom2Fail,
    ActionSquareFail,
    AutomorphismFail,
    AxiomError,
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
from .groups import FiniteGroup, subgroup
from .isomorphism import _candidates
from .racks import (
    FiniteRack,
    _normality,
    _pair_labels,
    conj_rack,
    restrict_rack,
    validate_rack,
)
from .search import assignments, hom_laws, laws_hold, squares_hold, xmod_squares
from .tables import FiniteStructure, Hom, compose_homs, identity_hom, rect_table, validate_hom


# ---------------------------------------------------------------- rack actions


@dataclass(frozen=True)
class RackAction:
    actee: FiniteRack
    actor: FiniteRack
    table: tuple[tuple[int, ...], ...]

    def act(self, s: int, r: int) -> int:
        return self.table[s][r]


def validate_action(table, actee: FiniteRack, actor: FiniteRack) -> RackAction:
    """Exhaustively check the two action laws and pointed compatibility."""
    if not (isinstance(actee, FiniteRack) and isinstance(actor, FiniteRack)):
        raise ValueError("a rack action needs pointed racks on both sides")
    s_rack, r_rack = actee, actor
    t = rect_table(table, s_rack.size, r_rack.size, s_rack.size, "action table")
    for s in s_rack.elements():
        for r in r_rack.elements():
            sr = t[s][r]
            for rp in r_rack.elements():
                if t[sr][rp] != t[t[s][rp]][r_rack.table[r][rp]]:
                    raise ActionAxiom1Fail(s, r, rp)
    for s in s_rack.elements():
        for sp in s_rack.elements():
            ssp = s_rack.table[s][sp]
            for r in r_rack.elements():
                if t[ssp][r] != s_rack.table[t[s][r]][t[sp][r]]:
                    raise ActionAxiom2Fail(s, sp, r)
    bp = s_rack.basepoint
    for r in r_rack.elements():
        if t[bp][r] != bp:
            raise PointednessFail(bp, r, t[bp][r], "absorb")
    for s in s_rack.elements():
        if t[s][r_rack.basepoint] != s:
            raise PointednessFail(s, r_rack.basepoint, t[s][r_rack.basepoint], "unit")
    return RackAction(s_rack, r_rack, t)


def trivial_action(actee: FiniteRack, actor: FiniteRack) -> RackAction:
    return validate_action([[s] * actor.size for s in actee.elements()], actee, actor)


def conjugation_action(r: FiniteRack) -> RackAction:
    """A rack acting on itself by its own operation."""
    return validate_action(r.table, r, r)


def hemi_semidirect(action: RackAction) -> FiniteRack:
    """Pair rack with (s, r) ◁ (s', r') = (s.r', r ◁ r'); s' is discarded.

    The output is re-validated: an action whose translations are not
    bijective yields a table with a collapsing column, reported as
    ResultNotRack.
    """
    s_rack, r_rack = action.actee, action.actor
    width = r_rack.size
    table = [
        [
            action.table[s][rp] * width + r_rack.table[r][rp]
            for _sp in s_rack.elements()
            for rp in r_rack.elements()
        ]
        for s in s_rack.elements()
        for r in r_rack.elements()
    ]
    bp = s_rack.basepoint * width + r_rack.basepoint
    try:
        return validate_rack(table, bp, labels=_pair_labels(s_rack, r_rack))
    except AxiomError as exc:
        raise ResultNotRack(exc) from exc


# ---------------------------------------------------------------- crossed modules


@dataclass(frozen=True)
class XMod:
    """Crossed module of racks or of groups: a boundary hom d: dom -> cod and
    the table ``action[r][s]`` of r acted on by s; ``dom`` tells which kind."""

    boundary: Hom
    action: tuple[tuple[int, ...], ...]

    @property
    def dom(self) -> FiniteStructure:
        return self.boundary.dom

    @property
    def cod(self) -> FiniteStructure:
        return self.boundary.cod

    def act(self, r: int, s: int) -> int:
        return self.action[r][s]


def validate_xmod(boundary: Hom, action) -> XMod:
    """Check every crossed-module law of the table ``action`` over all tuples.

    The law family is read from the kind of ``boundary.dom``: the action
    laws, X2 and X1 for racks; automorphisms, the right action,
    equivariance and Peiffer for groups.
    """
    laws = validate_group_xmod if isinstance(boundary.dom, FiniteGroup) else validate_rack_xmod
    return XMod(boundary, laws(boundary, action))


# The two law families of ``validate_xmod``.  They stay module-level under
# these names because perfbench/spans.py times crossed-module validation by
# them; ``rackmod`` exports only ``validate_xmod``.


def validate_rack_xmod(boundary: Hom, action) -> tuple[tuple[int, ...], ...]:
    """The action laws, then X2: r.d(r') = r ◁ r', then X1: d(r.s) = d(r) ◁ s.

    Returns the action table; ``validate_action`` refuses anything but racks.
    """
    r_rack, s_rack = boundary.dom, boundary.cod
    d = boundary.map
    t = validate_action(action, r_rack, s_rack).table
    for r in r_rack.elements():
        for rp in r_rack.elements():
            if t[r][d[rp]] != r_rack.table[r][rp]:
                raise X2Fail(r, rp)
    for r in r_rack.elements():
        for s in s_rack.elements():
            if d[t[r][s]] != s_rack.table[d[r]][s]:
                raise X1Fail(r, s)
    return t


def validate_group_xmod(boundary: Hom, action) -> tuple[tuple[int, ...], ...]:
    """Right action by automorphisms, equivariance, and the Peiffer law.

    Returns the action table; anything but groups raises ``ValueError``.
    """
    m_grp, n_grp = boundary.dom, boundary.cod
    if not (isinstance(m_grp, FiniteGroup) and isinstance(n_grp, FiniteGroup)):
        raise ValueError("group crossed-module laws need groups on both sides")
    t = rect_table(action, m_grp.size, n_grp.size, m_grp.size, "action table")
    for n in n_grp.elements():
        for m in m_grp.elements():
            for mp in m_grp.elements():
                if t[m_grp.mul[m][mp]][n] != m_grp.mul[t[m][n]][t[mp][n]]:
                    raise AutomorphismFail(n, m, mp, "not multiplicative")
        seen: dict[int, int] = {}
        for m in m_grp.elements():
            v = t[m][n]
            if v in seen:
                raise AutomorphismFail(n, seen[v], m, "not injective")
            seen[v] = m
    for m in m_grp.elements():
        if t[m][n_grp.identity] != m:
            raise GroupActionFail(m, n_grp.identity, None)
    for m in m_grp.elements():
        for n in n_grp.elements():
            for np in n_grp.elements():
                if t[t[m][n]][np] != t[m][n_grp.mul[n][np]]:
                    raise GroupActionFail(m, n, np)
    d = boundary.map
    for m in m_grp.elements():
        for n in n_grp.elements():
            if d[t[m][n]] != n_grp.conj(d[m], n):
                raise EquivarianceFail(m, n)
    for m in m_grp.elements():
        for mp in m_grp.elements():
            if t[m][d[mp]] != m_grp.conj(m, mp):
                raise PeifferFail(m, mp)
    return t


def inclusion_xmod(subset, r: FiniteRack) -> XMod:
    """Normal subrack N of R, included into R, with R acting by conjugation.

    The subrack is validated once, and the inclusion is validated as a hom
    from it.
    """
    emb, check = _normality(subset, r)
    if not check.ok:
        raise NotNormal(*check.witness)
    sub = restrict_rack(r, emb)
    pos = {x: i for i, x in enumerate(emb)}
    boundary = validate_hom(sub, r, emb)
    table = [[pos[r.table[x][b]] for b in r.elements()] for x in emb]
    return validate_xmod(boundary, table)


def inclusion_group_xmod(subset, g: FiniteGroup) -> XMod:
    """Normal subgroup included into g, with g acting by conjugation."""
    sub, emb_hom = subgroup(g, subset)
    emb = emb_hom.map
    pos = {x: i for i, x in enumerate(emb)}
    table = []
    for i, m in enumerate(emb):
        row = []
        for n in g.elements():
            v = g.conj(m, n)
            if v not in pos:
                raise NotNormal(m, n, v)
            row.append(pos[v])
        table.append(row)
    return validate_xmod(emb_hom, table)


def _self_action(x: FiniteStructure):
    """How x acts on itself: by conjugation for a group, by ◁ for a rack."""
    return x.conj if isinstance(x, FiniteGroup) else x.op


def identity_xmod(x: FiniteStructure) -> XMod:
    """x acting on itself by ◁, or by conjugation for a group."""
    op = _self_action(x)
    return validate_xmod(identity_hom(x), [[op(m, n) for n in x.elements()] for m in x.elements()])


# ---------------------------------------------------------------- crossed-module morphisms


@dataclass(frozen=True)
class XModMorphism:
    """Crossed-module morphism of racks or of groups: f1 on carriers, f0 on bases."""

    src: XMod
    dst: XMod
    f1: Hom
    f0: Hom


def validate_xmod_morphism(
    f1: Hom, f0: Hom, src: XMod, dst: XMod
) -> XModMorphism:
    """Check the boundary square and the action square over all elements."""
    if f1.dom != src.dom or f1.cod != dst.dom:
        raise ValueError("f1 endpoints do not match the crossed modules")
    if f0.dom != src.cod or f0.cod != dst.cod:
        raise ValueError("f0 endpoints do not match the crossed modules")
    for r in src.dom.elements():
        if dst.boundary.map[f1.map[r]] != f0.map[src.boundary.map[r]]:
            raise BoundarySquareFail(r)
    for r in src.dom.elements():
        for s in src.cod.elements():
            if f1.map[src.act(r, s)] != dst.act(f1.map[r], f0.map[s]):
                raise ActionSquareFail(r, s)
    return XModMorphism(src, dst, f1, f0)


def identity_xmod_morphism(x: XMod) -> XModMorphism:
    return validate_xmod_morphism(identity_hom(x.dom), identity_hom(x.cod), x, x)


def compose_xmod_morphisms(m1: XModMorphism, m2: XModMorphism) -> XModMorphism:
    """The composite "m1 then m2"."""
    if m1.dst != m2.src:
        raise ValueError("morphisms are not composable")
    return validate_xmod_morphism(
        compose_homs(m1.f1, m2.f1), compose_homs(m1.f0, m2.f0), m1.src, m2.dst
    )


def find_xmod_isomorphism(a: XMod, b: XMod) -> XModMorphism | None:
    """The least crossed-module isomorphism a -> b by map tuples (f1, f0), if any.

    One ``assignments`` search sets f1 on a's carrier and then f0 on its
    base, each coordinate ranging in ascending order over the elements of b
    with its invariants.  Both maps must be injective pointed rack homs, and
    the boundary squares d_b f1(r) = f0 d_a(r) and the action squares
    f1(r.s) = f1(r).f0(s), filed by ``xmod_squares``, must commute; each
    law is tested once its last coordinate is set.  A bijective morphism is
    an isomorphism of crossed modules, and the first hit is the least valid
    pair.
    """
    top, bottom = _candidates(a.dom, b.dom), _candidates(a.cod, b.cod)
    if top is None or bottom is None:
        return None
    m, n = len(top), len(bottom)
    top_laws = hom_laws(a.dom.table, range(m), m + n)
    bottom_laws = hom_laws(a.cod.table, range(m, m + n), m + n)
    squares = xmod_squares(a, range(m), range(m, m + n), m + n)

    def holds(k: int, f: list) -> bool:
        if k < m:
            return f.index(f[k]) == k and laws_hold(top_laws[k], f, b.dom.table)
        return (
            f.index(f[k], m) == k
            and laws_hold(bottom_laws[k], f, b.cod.table)
            and squares_hold(squares[k], f, b.boundary.map, b.act)
        )

    for f in assignments(top + bottom, holds):
        return validate_xmod_morphism(
            validate_hom(a.dom, b.dom, f[:m]), validate_hom(a.cod, b.cod, f[m:]), a, b
        )
    return None


# ---------------------------------------------------------------- conjugation functor


def conj_xmod(g: XMod) -> XMod:
    """Conjugation racks on both groups, with the action table reused."""
    boundary = validate_hom(conj_rack(g.dom), conj_rack(g.cod), g.boundary.map)
    return validate_xmod(boundary, g.action)


def conj_xmod_morphism(m: XModMorphism) -> XModMorphism:
    """f1 and f0 validated between the conjugation racks of ``conj_xmod``,
    so each rack is built once."""
    src, dst = conj_xmod(m.src), conj_xmod(m.dst)
    return validate_xmod_morphism(
        validate_hom(src.dom, dst.dom, m.f1.map), validate_hom(src.cod, dst.cod, m.f0.map), src, dst
    )

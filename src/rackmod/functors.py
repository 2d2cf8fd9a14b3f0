"""Associated-group presentations and hom-set comparisons.

A finite pointed rack X presents a group on one generator per element, with
one relator y^-1 x^-1 y (x ◁ y) for every ordered pair and one extra relator
killing the basepoint generator.  The presented group is never materialized;
its homs into a finite group G are exactly the generator assignments under
which every relator dies, and those coincide, as assignments, with the
pointed rack homs X -> Conj(G).  The checks here verify that coincidence
literally, as an equality of assignment sets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

from .errors import BijectionFail
from .groups import FiniteGroup
from .racks import FiniteRack, conj_rack
from .search import assignments, hom_laws, laws_hold, squares_hold, xmod_squares
from .tables import validate_hom
from .xmod import XMod, conj_xmod

Word = tuple[int, ...]
"""Letters are nonzero ints: +(i+1) is generator i, -(i+1) its inverse."""


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    pointed_relator: Word
    unit: tuple[int, ...]
    """Element x of the source rack maps to generator unit[x]."""


def as_presentation(x: FiniteRack) -> Presentation:
    gens = tuple(x.label(a) if x.labels else f"x{a}" for a in x.elements())
    relators = tuple(
        (-(b + 1), -(a + 1), (b + 1), (x.table[a][b] + 1))
        for a in x.elements()
        for b in x.elements()
    )
    return Presentation(gens, relators, (x.basepoint + 1,), tuple(range(x.size)))


CompiledWord = tuple[tuple[int, bool], ...]
"""A word as (generator index, inverted) pairs, one per letter."""


def _compile_word(word: Word) -> CompiledWord:
    if 0 in word:
        raise ValueError(f"word {word!r} has the letter 0; letters must be nonzero")
    return tuple((abs(letter) - 1, letter < 0) for letter in word)


def _word_evaluator(g: FiniteGroup):
    """The function (compiled words, assignment) -> a value in g.

    It returns the value of the first word that does not evaluate to the
    identity, or the identity when every word does.  The group's tables
    are bound once, so every relator test of a search and of its
    cross-checks, and ``evaluate_word``, run the same loop.
    """
    mul, inv, e = g.mul, g.inv, g.identity

    def first_value(words, assignment) -> int:
        for word in words:
            acc = e
            for i, inverted in word:
                v = assignment[i]
                acc = mul[acc][inv[v] if inverted else v]
            if acc != e:
                return acc
        return e

    return first_value


def evaluate_word(word: Word, assignment, g: FiniteGroup) -> int:
    return _word_evaluator(g)((_compile_word(word),), assignment)


def presentation_to_text(p: Presentation) -> str:
    """One relator per line as signed 1-based generator indices."""
    words = p.relators + (p.pointed_relator,)
    return "\n".join(" ".join(str(l) for l in w) for w in words) + "\n"


@dataclass(frozen=True)
class HomSet:
    source: str
    target: str
    maps: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.maps)


def _presented_hom_search(p: Presentation, g: FiniteGroup, var: Sequence[int], nvars: int):
    """The domains and per-level test of an ``assignments`` search for p in g.

    Generator i is held by variable ``var[i]`` and ranges over g in index
    order; a relator is compiled once and filed under its last variable, so
    it is tested as soon as all its letters are assigned.  The empty word is
    the identity and constrains nothing, so it is not filed.  When a relator
    filed at k reads k's generator x exactly once, w = u·x^±1·v, x is
    solved for: x^±1 = (v·u)^-1, which is the one value that kills w.
    """
    first_value = _word_evaluator(g)
    e = g.identity
    by_last: list[list[CompiledWord]] = [[] for _ in range(nvars)]
    for w in p.relators + (p.pointed_relator,):
        word = tuple((var[i], inverted) for i, inverted in _compile_word(w))
        if word:
            by_last[max(i for i, _ in word)].append(word)

    def domain(k: int):
        for word in by_last[k]:
            at = [n for n, (i, _) in enumerate(word) if i == k]
            if len(at) == 1:
                n = at[0]
                vu = word[n + 1 :] + word[:n]
                solved = vu if word[n][1] else tuple((i, not inverted) for i, inverted in reversed(vu))
                return lambda assign: (first_value((solved,), assign),)
        return range(g.size)

    domains = [domain(var[i]) for i in range(len(p.generators))]
    return domains, lambda k, assign: first_value(by_last[k], assign) == e


def enumerate_presented_homs(p: Presentation, g: FiniteGroup) -> HomSet:
    """All generator assignments killing every relator, in lexicographic order.

    One ``assignments`` search, generator by generator.
    """
    n = len(p.generators)
    maps = assignments(*_presented_hom_search(p, g, range(n), n))
    return HomSet(f"<{','.join(p.generators)}>", f"group[{g.size}]", tuple(maps))


def _rack_hom_search(x: FiniteRack, y: FiniteRack, var: Sequence[int], nvars: int):
    """The domains and per-level test of an ``assignments`` search for x -> y.

    Element a is held by variable ``var[a]``: the basepoint's domain is y's
    basepoint, every other element ranges over y, and each pair law
    f(p ◁ q) = f(p) ◁ f(q) is tested as soon as its last variable is set.
    A law filed at var[a] can force f(a): if a = p ◁ q with p and q set
    earlier, f(a) = f(p) ◁ f(q); if a = p with q and p ◁ q set earlier,
    f(a) is the one element whose image under y's column f(q), a
    bijection, is f(p ◁ q).
    """
    laws = hom_laws(x.table, var, nvars)
    yt = y.table
    # left_of[c][z] is the b with b ◁ c = z
    left_of = [[0] * y.size for _ in range(y.size)]
    for b, row in enumerate(yt):
        for c, z in enumerate(row):
            left_of[c][z] = b

    def domain(a: int):
        if a == x.basepoint:
            return (y.basepoint,)
        k = var[a]
        for i, j, l in laws[k]:
            if l == k and i < k and j < k:
                return lambda f: (yt[f[i]][f[j]],)
        for i, j, l in laws[k]:
            if i == k and j < k and l < k:
                return lambda f: (left_of[f[j]][f[l]],)
        return range(y.size)

    domains = [domain(a) for a in range(x.size)]
    return domains, lambda k, f: laws_hold(laws[k], f, yt)


def enumerate_rack_homs(x: FiniteRack, y: FiniteRack) -> HomSet:
    """All pointed rack homs x -> y, in lexicographic order.

    One ``assignments`` search over the elements of x in index order.
    """
    maps = assignments(*_rack_hom_search(x, y, range(x.size), x.size))
    return HomSet(f"rack[{x.size}]", f"rack[{y.size}]", tuple(maps))


def enumerate_rack_homs_bruteforce(x: FiniteRack, y: FiniteRack) -> HomSet:
    """Unpruned cross-check: filter every one of y.size ** x.size maps."""
    out = []
    for f in product(range(y.size), repeat=x.size):
        if f[x.basepoint] != y.basepoint:
            continue
        if all(
            f[x.table[a][b]] == y.table[f[a]][f[b]]
            for a in range(x.size)
            for b in range(x.size)
        ):
            out.append(f)
    return HomSet(f"rack[{x.size}]", f"rack[{y.size}]", tuple(out))


@dataclass(frozen=True)
class AdjunctionReport:
    rack_hom_count: int
    presented_hom_count: int
    assignments: tuple[tuple[int, ...], ...]


def check_adjunction_bijection(x: FiniteRack, g: FiniteGroup) -> AdjunctionReport:
    """Hom(X, Conj G) and Hom(As X, G) must coincide as assignment sets.

    Each side is enumerated by its own machinery and each assignment is
    re-verified against the other side's laws before comparison.
    """
    cg = conj_rack(g)
    rack_side = enumerate_rack_homs(x, cg)
    pres = as_presentation(x)
    group_side = enumerate_presented_homs(pres, g)
    rack_set = set(rack_side.maps)
    group_set = set(group_side.maps)
    first_value = _word_evaluator(g)
    words = [_compile_word(w) for w in pres.relators + (pres.pointed_relator,)]
    for m in rack_side.maps:
        if first_value(words, m) != g.identity:
            raise BijectionFail("rack", m)
        if m not in group_set:
            raise BijectionFail("rack", m)
    for m in group_side.maps:
        validate_hom(x, cg, m)
        if m not in rack_set:
            raise BijectionFail("presented", m)
    return AdjunctionReport(rack_side.count, group_side.count, rack_side.maps)


@dataclass(frozen=True)
class XModAdjunctionReport:
    rack_side_count: int
    group_side_count: int
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def check_xmod_adjunction(x: XMod, g: XMod) -> XModAdjunctionReport:
    """Crossed-module morphisms into Conj(g) against presented assignment pairs.

    Each side is one ``assignments`` search that sets f0 on x's base and
    then f1 on its carrier.  The rack side tests the pointed rack hom laws
    into Conj(g), the group side kills the relators of both presentations
    in g, and both test the boundary and action squares of ``xmod_squares``
    against their own target once the last coordinate of each is set.  So
    each side yields exactly the pairs of its two hom sets whose squares
    commute.  The two sides must be literally equal.
    """
    ns, n = x.cod.size, x.cod.size + x.dom.size
    base, top = range(ns), range(ns, n)
    squares = xmod_squares(x, top, base, n)

    def joint_pairs(search, target):
        """Every (f1, f0) of search's homs into target whose squares commute, ascending."""
        bottom, test0 = search(x.cod, target.cod, base, n)
        tops, test1 = search(x.dom, target.dom, top, n)
        d, act = target.boundary.map, target.act

        def holds(k: int, f: list) -> bool:
            return test0(k, f) and test1(k, f) and squares_hold(squares[k], f, d, act)

        return sorted((f[ns:], f[:ns]) for f in assignments(bottom + tops, holds))

    rack_pairs = joint_pairs(_rack_hom_search, conj_xmod(g))
    group_pairs = joint_pairs(lambda r, h, *v: _presented_hom_search(as_presentation(r), h, *v), g)
    rack_set = set(rack_pairs)
    group_set = set(group_pairs)
    for pair in rack_pairs:
        if pair not in group_set:
            raise BijectionFail("rack", pair)
    for pair in group_pairs:
        if pair not in rack_set:
            raise BijectionFail("presented", pair)
    return XModAdjunctionReport(len(rack_pairs), len(group_pairs), tuple(rack_pairs))

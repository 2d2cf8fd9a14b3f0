"""Pointed racks on dense index sets {0..n-1}.

A pointed rack is a finite set with a binary operation ``a ◁ b`` such that
every column map ``a -> a ◁ b`` is a bijection, the operation is
self-distributive ``(a ◁ b) ◁ c = (a ◁ c) ◁ (b ◁ c)``, and a distinguished
element 1 satisfies ``1 ◁ a = 1`` and ``a ◁ 1 = a``.  Unpointed racks drop the
last family.  All values here are immutable; validators re-check every axiom
eagerly and report the lexicographically first violation.

Substructures have one body for racks and groups: ``substructure`` includes
a closed subset into a rack or a group, and normality, which
``is_normal_subrack`` and ``kernel`` check, is closure under the structure
acting on itself, by ◁ for a rack and by conjugation for a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BasepointMissing,
    ConstructionFail,
    NonBijectiveColumn,
    NotPointed,
    SelfDistributivityFail,
)
from .groups import FiniteGroup, validate_group
from .tables import (
    FiniteStructure, Hom, _merged, check_index, label_row, square_table, validate_hom
)


@dataclass(frozen=True)
class FiniteRack(FiniteStructure):
    size: int
    table: tuple[tuple[int, ...], ...]
    basepoint: int
    labels: tuple[str, ...] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class UnpointedRack(FiniteStructure):
    size: int
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)


def _check_columns(table):
    n = len(table)
    for b in range(n):
        seen: dict[int, int] = {}
        for a in range(n):
            v = table[a][b]
            if v in seen:
                raise NonBijectiveColumn(b, seen[v], a)
            seen[v] = a


def _self_distributivity_witness(table) -> tuple[int, int, int] | None:
    """The first (a, b, c) with (a ◁ b) ◁ c != (a ◁ c) ◁ (b ◁ c), or None."""
    n = len(table)
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            ab = row_a[b]
            row_b = table[b]
            for c in range(n):
                if table[ab][c] != table[row_a[c]][row_b[c]]:
                    return a, b, c
    return None


def _check_unpointed_laws(table) -> None:
    """Bijective columns, then self-distributivity."""
    _check_columns(table)
    witness = _self_distributivity_witness(table)
    if witness is not None:
        raise SelfDistributivityFail(*witness)


def validate_rack(table, basepoint: int, labels=None) -> FiniteRack:
    """Check all three axiom families; raises on the first violation found."""
    t = square_table(table, what="rack table")
    n = len(t)
    bp = check_index(basepoint, n, "basepoint")
    _check_unpointed_laws(t)
    for a in range(n):
        if t[bp][a] != bp:
            raise NotPointed(a, t[bp][a], "absorb")
        if t[a][bp] != a:
            raise NotPointed(a, t[a][bp], "unit")
    return FiniteRack(n, t, bp, label_row(labels, n))


def validate_unpointed_rack(table, labels=None) -> UnpointedRack:
    t = square_table(table, what="rack table")
    _check_unpointed_laws(t)
    return UnpointedRack(len(t), t, label_row(labels, len(t)))


def constant_rack_hom(dom: FiniteRack, cod: FiniteRack) -> Hom:
    """Everything to the basepoint; always a hom."""
    return validate_hom(dom, cod, [cod.basepoint] * dom.size)


def trivial_rack(n: int, labels=None) -> FiniteRack:
    """a ◁ b = a with basepoint 0."""
    return validate_rack([[a] * n for a in range(n)], 0, labels=labels)


# ---------------------------------------------------------------- from groups


def conj_rack(g: FiniteGroup) -> FiniteRack:
    """Conjugation rack: a ◁ b = b^-1 a b, pointed at the identity."""
    if not isinstance(g, FiniteGroup):
        raise ValueError(f"conjugation needs a group, got a {type(g).__name__}")
    table = [[g.conj(a, b) for b in range(g.size)] for a in range(g.size)]
    return validate_rack(table, g.identity, labels=g.labels)


def conj_hom(f: Hom) -> Hom:
    """A group hom is a pointed rack hom between the conjugation racks."""
    return validate_hom(conj_rack(f.dom), conj_rack(f.cod), f.map)


def core_rack(g: FiniteGroup) -> UnpointedRack:
    """Core rack: a ◁ b = b a^-1 b.  Generally has no basepoint."""
    table = [
        [g.mul[g.mul[b][g.inv[a]]][b] for b in range(g.size)]
        for a in range(g.size)
    ]
    return validate_unpointed_rack(table, labels=g.labels)


# ---------------------------------------------------------------- products


def _pair_labels(p: FiniteRack, r: FiniteRack) -> list[str]:
    return [f"({p.label(a)},{r.label(b)})" for a in p.elements() for b in r.elements()]


def product_rack(p: FiniteRack, r: FiniteRack) -> FiniteRack:
    """Componentwise operation on pairs, pointed at the pair of basepoints.

    Pair (a, b) sits at index a * r.size + b.
    """
    table = [
        [
            p.table[a][c] * r.size + r.table[b][d]
            for c in p.elements()
            for d in r.elements()
        ]
        for a in p.elements()
        for b in r.elements()
    ]
    bp = p.basepoint * r.size + r.basepoint
    return validate_rack(table, bp, labels=_pair_labels(p, r))


def product_projections(p: FiniteRack, r: FiniteRack) -> tuple[Hom, Hom]:
    prod = product_rack(p, r)
    proj1 = validate_hom(prod, p, [i // r.size for i in range(prod.size)])
    proj2 = validate_hom(prod, r, [i % r.size for i in range(prod.size)])
    return proj1, proj2


def adjoin_basepoint(u: UnpointedRack) -> FiniteRack:
    """Add a fresh absorbing basepoint at index u.size.

    The new element * satisfies * ◁ a = * and a ◁ * = a; the axioms survive
    the extension, and the result is re-validated rather than assumed.
    """
    n = u.size
    table = [list(row) + [a] for a, row in enumerate(u.table)]
    table.append([n] * (n + 1))
    labels = None
    if u.labels:
        labels = list(u.labels) + ["*"]
    return validate_rack(table, n, labels=labels)


# ---------------------------------------------------------------- substructures


def _validator(x: FiniteStructure):
    """The validator of x's kind: ``validate_group`` or ``validate_rack``."""
    return validate_group if isinstance(x, FiniteGroup) else validate_rack


def _self_action(x: FiniteStructure):
    """How x acts on itself: by conjugation for a group, by ◁ for a rack."""
    return x.conj if isinstance(x, FiniteGroup) else x.op


def substructure(x: FiniteStructure, elements) -> Hom:
    """The inclusion of a closed subset of x that holds x's basepoint (a
    group's identity).

    ``.dom`` is the subrack or subgroup, validated in x's own kind: a closed
    subset of a finite group that holds the identity is a subgroup.
    """
    emb = tuple(sorted({check_index(a, x.size, "subset element") for a in elements}))
    pos = {a: i for i, a in enumerate(emb)}
    if x.basepoint not in pos:
        raise ValueError("subset does not contain the basepoint")
    for a in emb:
        for b in emb:
            if x.table[a][b] not in pos:
                raise ValueError(f"subset is not closed at ({a}, {b})")
    table = [[pos[x.table[a][b]] for b in emb] for a in emb]
    labels = [x.label(a) for a in emb] if x.labels else None
    return validate_hom(_validator(x)(table, pos[x.basepoint], labels=labels), x, emb)


@dataclass(frozen=True)
class NormalityCheck:
    ok: bool
    witness: tuple[int, int, int] | None


def _normality(subset, x: FiniteStructure) -> tuple[tuple[int, ...], NormalityCheck]:
    """The sorted subset and its closure under x acting on itself: by ◁ for a
    rack, by conjugation for a group."""
    emb = tuple(sorted({check_index(a, x.size, "subset element") for a in subset}))
    if not emb or x.basepoint not in emb:
        raise BasepointMissing()
    members, op = set(emb), _self_action(x)
    for n in emb:
        for b in x.elements():
            v = op(n, b)
            if v not in members:
                return emb, NormalityCheck(False, (n, b, v))
    return emb, NormalityCheck(True, None)


def is_normal_subrack(subset, x: FiniteStructure) -> NormalityCheck:
    """Closure of the subset under x acting on itself.

    A normal subset of a rack is closed, and so a pointed rack under the
    restricted table; that is re-verified here all the same.  A normal
    subset of a group that is not closed raises ``ValueError``.
    """
    emb, check = _normality(subset, x)
    if check.ok:
        substructure(x, emb)
    return check


def kernel(f: Hom) -> Hom:
    """The inclusion of the preimage of the codomain's basepoint, which is normal."""
    emb, check = _normality([a for a in f.dom.elements() if f.map[a] == f.cod.basepoint], f.dom)
    if not check.ok:
        raise ConstructionFail("the kernel is not normal", check.witness)
    return substructure(f.dom, emb)


# ---------------------------------------------------------------- orbits


def rack_orbits(r: FiniteRack | UnpointedRack) -> tuple[tuple[int, ...], ...]:
    """Components of the element set under all column maps a -> a ◁ b."""
    root = _merged(list(range(r.size)), ((a, c) for a, row in enumerate(r.table) for c in row))
    return tuple(tuple(a for a in r.elements() if root[a] == c) for c in sorted(set(root)))

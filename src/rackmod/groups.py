"""Finite groups as multiplication tables, with exhaustively checked axioms.

The product convention for permutation groups is "apply left, then right":
``mul[g][h]`` composes g first and h second.  Conjugation of g by h is
``h^-1 g h`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .errors import AssociativityFail, IdentityFail, InverseFail
from .tables import FiniteStructure, Hom, check_index, label_row, square_table, validate_hom


@dataclass(frozen=True)
class FiniteGroup(FiniteStructure):
    size: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...] = field(compare=False)
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    # ``mul`` and ``identity`` under the names shared code reads
    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return self.mul

    @property
    def basepoint(self) -> int:
        return self.identity

    def invert(self, a: int) -> int:
        return self.inv[a]

    def conj(self, g: int, h: int) -> int:
        """h^-1 g h"""
        return self.mul[self.mul[self.inv[h]][g]][h]


def validate_group(mul, identity: int, labels=None) -> FiniteGroup:
    """Check identity, associativity, and inverse laws over the whole table."""
    table = square_table(mul, what="multiplication table")
    n = len(table)
    e = check_index(identity, n, "identity")
    for a in range(n):
        if table[e][a] != a or table[a][e] != a:
            raise IdentityFail(a)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise AssociativityFail(a, b, c)
    inv = []
    for a in range(n):
        b = next((b for b in range(n) if table[a][b] == e and table[b][a] == e), None)
        if b is None:
            raise InverseFail(a)
        inv.append(b)
    return FiniteGroup(n, table, e, tuple(inv), label_row(labels, n))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return validate_group(table, 0, labels=[str(a) for a in range(n)])


_S3_LABELS = {
    (0, 1, 2): "e",
    (0, 2, 1): "(23)",
    (1, 0, 2): "(12)",
    (1, 2, 0): "(123)",
    (2, 0, 1): "(132)",
    (2, 1, 0): "(13)",
}


def symmetric_group_3() -> FiniteGroup:
    """S3 on the point set {0,1,2}; elements ordered lexicographically."""
    elems = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(elems)}
    table = [
        [idx[tuple(b[a[x]] for x in range(3))] for b in elems]
        for a in elems
    ]
    return validate_group(table, 0, labels=[_S3_LABELS[p] for p in elems])


def subgroup(g: FiniteGroup, elements) -> tuple[FiniteGroup, Hom]:
    """Restrict to a subset; returns the subgroup and its inclusion hom."""
    emb = tuple(sorted({check_index(x, g.size, "subgroup element") for x in elements}))
    pos = {x: i for i, x in enumerate(emb)}
    if g.identity not in pos:
        raise ValueError("subset does not contain the identity")
    for a in emb:
        if g.inv[a] not in pos:
            raise ValueError(f"subset is not closed under inversion at {a}")
        for b in emb:
            if g.mul[a][b] not in pos:
                raise ValueError(f"subset is not closed under multiplication at ({a}, {b})")
    table = [[pos[g.mul[a][b]] for b in emb] for a in emb]
    labels = [g.label(a) for a in emb] if g.labels else None
    sub = validate_group(table, pos[g.identity], labels=labels)
    return sub, validate_hom(sub, g, emb)


def conjugacy_classes(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Partition of the element set into conjugacy classes, sorted."""
    seen: set[int] = set()
    classes = []
    for a in range(g.size):
        if a in seen:
            continue
        cls = sorted({g.conj(a, h) for h in range(g.size)})
        seen.update(cls)
        classes.append(tuple(cls))
    return tuple(sorted(classes))

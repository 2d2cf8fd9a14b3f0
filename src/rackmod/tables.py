"""Plumbing for dense 0-based operation tables and index maps, the
accessors and homs shared by racks and groups, and the one union-find
(``_merged``), which rack orbits and the presolve of ``search`` share.

Both are a carrier {0..n-1} with a ``table`` and a distinguished
``basepoint`` (a group's identity), which is all a hom needs to know.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import HomBasepointFail, HomLawFail


def square_table(rows: Iterable[Sequence[int]], what: str = "table") -> tuple[tuple[int, ...], ...]:
    """Normalize to an n x n tuple matrix with entries in range(n)."""
    rows = tuple(rows)
    n = len(rows)
    if n == 0:
        raise ValueError(f"{what} must be nonempty")
    return rect_table(rows, n, n, n, what)


def rect_table(
    rows: Iterable[Sequence[int]],
    height: int,
    width: int,
    bound: int,
    what: str = "table",
) -> tuple[tuple[int, ...], ...]:
    """Normalize to a height x width tuple matrix with entries in range(bound).

    Entries must be ints as they stand: floats, strings and booleans are
    rejected rather than coerced.
    """
    table = tuple(tuple(row) for row in rows)
    if len(table) != height:
        raise ValueError(f"{what} has {len(table)} rows, expected {height}")
    for i, row in enumerate(table):
        if len(row) != width:
            raise ValueError(f"{what} row {i} has length {len(row)}, expected {width}")
        for j, x in enumerate(row):
            if type(x) is not int or not 0 <= x < bound:
                raise ValueError(_entry_error(f"{what}[{i}][{j}] =", x, bound))
    return table


def index_row(values: Iterable[int], length: int, bound: int, what: str = "map") -> tuple[int, ...]:
    row = tuple(values)
    if len(row) != length:
        raise ValueError(f"{what} has length {len(row)}, expected {length}")
    for j, x in enumerate(row):
        if type(x) is not int or not 0 <= x < bound:
            raise ValueError(_entry_error(f"{what}[{j}] =", x, bound))
    return row


def check_index(i: int, n: int, what: str = "index") -> int:
    if type(i) is not int or not 0 <= i < n:
        raise ValueError(_entry_error(what, i, n))
    return i


def _entry_error(where: str, x, bound: int) -> str:
    if type(x) is not int:
        return f"{where} {x!r} is not an integer"
    return f"{where} {x} is out of range(0, {bound})"


def label_row(labels: Iterable[str] | None, n: int) -> tuple[str, ...] | None:
    if labels is None:
        return None
    row = tuple(str(x) for x in labels)
    if len(row) != n:
        raise ValueError(f"labels have length {len(row)}, expected {n}")
    return row


# ---------------------------------------------------------------- shared core


class FiniteStructure:
    """Accessors over ``size``, ``table`` and ``labels``, which subclasses provide."""

    __slots__ = ()

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.size)

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)


@dataclass(frozen=True)
class Hom:
    """A validated map between two pointed racks or two groups; ``dom`` tells which."""

    dom: FiniteStructure
    cod: FiniteStructure
    map: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.map[a]


def _check_endpoints(dom: FiniteStructure, cod: FiniteStructure) -> None:
    """Refuse hom endpoints of different kinds, or without a basepoint."""
    if type(dom) is not type(cod):
        raise ValueError(f"hom endpoints are a {type(dom).__name__} and a {type(cod).__name__}")
    if not hasattr(dom, "basepoint"):
        raise ValueError(f"a hom joins pointed racks or groups, not {type(dom).__name__}s")


def validate_hom(dom: FiniteStructure, cod: FiniteStructure, mapping) -> Hom:
    """Check that the map keeps the distinguished element and the operation."""
    _check_endpoints(dom, cod)
    m = index_row(mapping, dom.size, cod.size, "hom map")
    bp = dom.basepoint
    if m[bp] != cod.basepoint:
        raise HomBasepointFail(bp, m[bp])
    dom_table, cod_table = dom.table, cod.table
    for a in range(dom.size):
        row, image_row = dom_table[a], cod_table[m[a]]
        for b in range(dom.size):
            if m[row[b]] != image_row[m[b]]:
                raise HomLawFail(a, b)
    return Hom(dom, cod, m)


def identity_hom(x: FiniteStructure) -> Hom:
    return validate_hom(x, x, range(x.size))


def compose_homs(f: Hom, g: Hom) -> Hom:
    """The composite "f then g"."""
    if f.cod != g.dom:
        raise ValueError("homs are not composable")
    return validate_hom(f.dom, g.cod, tuple(g.map[v] for v in f.map))


def _merged(root: list[int], pairs) -> list[int]:
    """``root`` with every pair (a, b) of ``pairs`` merged into one class.

    ``root`` is a union-find forest over 0..n-1 in which each class's root
    is its least member, ``list(range(n))`` to begin with; it is returned
    with each member pointing at its root.
    """
    for a, b in pairs:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a != b:
            root[max(a, b)] = min(a, b)
    # a root is below its members, so ascending, each member's root is final
    for v in range(len(root)):
        root[v] = root[root[v]]
    return root

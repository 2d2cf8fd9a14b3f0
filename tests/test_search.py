"""The backtracking kernel against the filtered full product."""

from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rackmod import (
    constant_rack_hom,
    corpus,
    enumerate_xmod_morphisms,
    trivial_action,
    trivial_rack,
    validate_xmod,
)
from rackmod.errors import ActionSquareFail, AxiomError, BoundarySquareFail
from rackmod.search import assignments, hom_search, law_domains, morphism_search
from rackmod.tables import validate_hom
from rackmod.xmod import validate_xmod_morphism


@st.composite
def problems(draw):
    """Small domains and pairwise constraints, each a set of forbidden value pairs."""
    domains = draw(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=5))
    variables = st.integers(0, max(len(domains) - 1, 0))
    pairs = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6)
    constraints = draw(st.lists(st.tuples(variables, variables, pairs), max_size=6)) if domains else []
    return domains, constraints


def _filed(problem):
    """A problem's constraints filed as domains, where level k keeps, given
    the prefix, the values that pass the constraints whose last variable is
    k; and the problem's filtered full product."""
    domains, constraints = problem
    by_last = [[] for _ in domains]
    for i, j, forbidden in constraints:
        by_last[max(i, j)].append((i, j, forbidden))

    def holds(k, f):
        return all((f[i], f[j]) not in forbidden for i, j, forbidden in by_last[k])

    def survivors(k):
        def domain(assign):
            return [v for v in domains[k] if holds(k, assign[:k] + [v])]

        return domain

    expected = [
        p
        for p in product(*domains)
        if all((p[i], p[j]) not in forbidden for i, j, forbidden in constraints)
    ]
    return [survivors(k) for k in range(len(domains))], expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problems())
def test_assignments_are_the_filtered_product_in_order(problem):
    filed, expected = _filed(problem)
    assert list(assignments(filed)) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problems(), st.data())
def test_prefix_domains_that_keep_every_survivor_give_the_filtered_product(problem, data):
    """A domain computed from the prefix may return its survivors or yield
    them one at a time; the result stays the filtered product, and a level
    that yields is asked for its next value only once every completion of
    its current value has come out."""
    filed, expected = _filed(problem)
    current = {}  # current[k]: the value that yielding level k gave last

    def yielding(k, domain):
        def values(assign):
            for v in domain(assign):
                current[k] = v
                yield v

        return values

    mixed = [yielding(k, d) if data.draw(st.booleans()) else d for k, d in enumerate(filed)]
    found = []
    for leaf in assignments(mixed):
        assert all(leaf[k] == v for k, v in current.items())
        found.append(leaf)
    assert found == expected


@st.composite
def mask_problems(draw):
    """Variables with value sets of sizes 1 to 3, some with allowed values,
    and laws f[l] = t[f[i]][f[j]] over random tables, which need not be
    racks: rows and columns need not be bijections.  Rows of t and its
    values range over the values of i and l, columns over those of j.  Some
    laws name one variable at two or three of their positions."""
    n = draw(st.integers(0, 5))
    sizes = draw(st.lists(st.sampled_from([3, draw(st.integers(1, 3))]), min_size=n, max_size=n))
    allowed = [draw(st.none() | st.sets(st.integers(0, size - 1)).map(sorted)) for size in sizes]
    laws = []
    for _ in range(draw(st.integers(0, 7)) if n else 0):
        l, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=n > 1))
        like = [v for v in range(n) if sizes[v] == sizes[l] and v != l] or [l]
        i = draw(st.sampled_from(like))
        tie = draw(st.sampled_from(["none", "none", "ij", "il", "jl", "ijl"]))
        if tie in ("il", "ijl"):
            i = l
        if tie in ("ij", "ijl"):
            j = i
        if tie == "jl":
            j = l
        rows, cols = sizes[i], sizes[j]
        cells = st.lists(st.integers(0, rows - 1), min_size=cols, max_size=cols).map(tuple)
        t = draw(st.lists(cells, min_size=rows, max_size=rows).map(tuple))
        laws.append((t, i, j, l))
    return sizes, allowed, laws


def _needs(t) -> tuple[bool, bool]:
    """Whether the law f[l] = t[f[i]][f[j]] needs f[i] and f[j]: a square
    t needs no f[j] when its every row is constant, and no f[i] when its
    every column is; a rectangular t needs both."""
    square = len(t) == len(t[0])
    return (
        not (square and all(row == t[0] for row in t)),
        not (square and all(len(set(row)) == 1 for row in t)),
    )


def _law_mask(k, prefix, size, base, laws):
    """The mask of the values c of variable k that ``base`` allows and under
    which every law whose last needed variable is k holds, ``prefix``
    holding the earlier variables: every law read once, straight from its
    table, with 0 at a position it does not need."""
    m = base
    for t, i, j, l in laws:
        row, column = _needs(t)
        if max(i if row else l, j if column else l, l) == k:
            m &= sum(
                1 << c
                for c in range(size)
                if (f := [*prefix, c])[l] == t[f[i] if row else 0][f[j] if column else 0]
            )
    return m


# f[0] = t[f[0]][f[1]] over a table of 2 rows and 3 columns: the one read at
# level 1, on the diagonal, allows the columns {0, 1} for either f[0], which
# every value of the rows would take for every value; and f[0] = u[f[0]][f[1]],
# whose read allows all three columns and is dropped
RECTANGULAR = (
    [2, 3],
    [None, None],
    [(((0, 0, 1), (1, 1, 0)), 0, 1, 0), (((0, 0, 0), (1, 1, 1)), 0, 1, 0)],
)


@settings(max_examples=400, deadline=None, derandomize=True)
@example(RECTANGULAR)
@given(mask_problems())
def test_mask_domains_give_the_filtered_product_in_order(problem):
    """``law_domains`` filed as masks, read by the kernel or called, give
    exactly the members of the product of the allowed values that satisfy
    every law, in product order.  Reads that allow every value or repeat
    another are not filed, yet at every prefix of values, allowed or not,
    each level's mask is the mask of every law read once, each law at the
    last variable that its table needs."""
    sizes, allowed, laws = problem
    values = [range(size) if a is None else a for size, a in zip(sizes, allowed)]
    expected = [
        p for p in product(*values) if all(p[l] == t[p[i]][p[j]] for t, i, j, l in laws)
    ]
    bases = [sum(1 << v for v in vs) for vs in values]
    domains = law_domains(bases, laws)
    assert list(assignments(domains)) == expected
    called = [lambda f, d=d: d(f) for d in domains]
    assert list(assignments(called)) == expected
    for k, domain in enumerate(domains):
        for prefix in product(*map(range, sizes[:k])):
            want = _law_mask(k, prefix, sizes[k], bases[k], laws)
            assert domain.mask([*prefix, None]) == want, (k, prefix)


def test_a_read_over_columns_is_pruned_by_the_columns():
    """Of the two laws of ``RECTANGULAR``, filed where only j is marked, the
    one whose diagonal allows every column is dropped, and the one that
    allows two of the three is kept."""
    sizes, _, laws = RECTANGULAR
    domains = law_domains([(1 << n) - 1 for n in sizes], laws)
    assert [len(d.reads) for d in domains] == [0, 1]
    assert list(assignments(domains)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_no_variables_give_the_empty_assignment():
    assert list(assignments([])) == [()]


def test_the_kernel_has_no_depth_limit():
    """The search is a loop, so far more variables than Python's recursion
    limit still give their one assignment."""
    assert list(assignments([[0]] * 5000)) == [(0,) * 5000]


def test_an_empty_domain_gives_nothing():
    assert list(assignments([[0, 1], [], [0]])) == []


def test_a_failing_prefix_is_abandoned():
    """A value that level 0's domain leaves out is never extended: level 1's
    domain is called with the prefixes level 0 gives only."""
    calls = []

    def second(assign):
        calls.append(assign[:1])
        return [0, 1]

    assert list(assignments([lambda assign: [v for v in (0, 1) if v == 1], second])) == [(1, 0), (1, 1)]
    assert calls == [[1]]


def test_a_level_draws_its_next_value_after_every_completion_of_the_current_one():
    """A domain that yields may keep state for its current value, as rack
    enumeration's columns do: the kernel asks it for the next value only
    after the last completion of the current one has come out."""
    events = []

    def first(assign):
        for v in (0, 1):
            events.append(("draw", v))
            yield v

    for leaf in assignments([first, [0, 1]]):
        events.append(leaf)
    assert events == [("draw", 0), (0, 0), (0, 1), ("draw", 1), (1, 0), (1, 1)]


# Pairs with more set maps than this are skipped, to keep the test fast.
HOM_SEARCH_LIMIT = 20_000


def _homs_among(dom, cod, allowed):
    """The maps of ``product(*allowed)`` that ``validate_hom`` accepts, in product order."""
    homs = []
    for m in product(*allowed):
        try:
            validate_hom(dom, cod, m)
        except AxiomError:
            continue
        homs.append(m)
    return homs


def test_hom_search_is_the_filtered_product_of_its_allowed_values():
    """Racks and groups, in index and in reversed variable order, with every
    value allowed and with a restriction that drops values a law forces."""
    checked = forced_drops = 0
    for family in (corpus.racks(), corpus.groups()):
        for dom in family.values():
            n = dom.size
            for cod in family.values():
                if cod.size**n > HOM_SEARCH_LIMIT:
                    continue
                every = [list(cod.elements())] * n
                homs = _homs_among(dom, cod, every)
                # element a may not take the values v with (a + v) % 3 == 2
                restricted = [[v for v in cod.elements() if (a + v) % 3 != 2] for a in range(n)]
                for allowed, expected in ((None, homs), (restricted, _homs_among(dom, cod, restricted))):
                    for var in (range(n), range(n - 1, -1, -1)):
                        domains = hom_search(dom, cod, var, n, allowed)
                        found = [tuple(f[v] for v in var) for f in assignments(domains)]
                        if var.step < 0:
                            found.sort()
                        assert found == expected, (dom, cod, allowed, var)
                        checked += 1
                        if allowed is not None:
                            # a hom lost at a variable whose domain a law forces
                            forced_drops += sum(
                                any(h[a] not in allowed[a] and callable(domains[var[a]]) for a in range(n))
                                for h in homs
                            )
    assert checked > 100
    assert forced_drops > 0


def _action_only_xmods():
    """Two crossed modules t3 -> t2 with the constant boundary, so every
    boundary square commutes: 1 in t2 swaps 1 and 2 in one action and fixes
    them in the other."""
    flat, base = trivial_rack(3), trivial_rack(2)
    swap = [[r, (0, 2, 1)[r]] for r in range(3)]
    return [
        validate_xmod(constant_rack_hom(flat, base), swap),
        validate_xmod(constant_rack_hom(flat, base), trivial_action(flat, base).table),
    ]


def _listing(maps):
    """A builder whose search yields exactly ``maps``, maps of one length,
    in ascending order: the domain of each variable keeps the values of
    every map that extend the prefix to a prefix of a listed map."""
    prefixes = {m[:i] for m in maps for i in range(len(m) + 1)}
    values = sorted({v for m in maps for v in m})

    def build(var, nvars):
        def listed(i):
            def domain(f):
                head = tuple(f[v] for v in var[:i])
                return [v for v in values if head + (v,) in prefixes]

            return domain

        at = {k: i for i, k in enumerate(var)}
        return [listed(at[k]) if k in at else None for k in range(nvars)]

    return build


def test_morphism_search_is_the_filtered_product_of_two_hom_sets():
    """Every ordered pair of corpus crossed modules of one kind, plus two
    that differ only in their actions, whose hom sets are small enough to
    list by brute force.  Built by ``hom_search``, the search yields exactly
    the pairs (f0, f1) of the product of the two hom lists that
    ``validate_xmod_morphism`` accepts, in that order.  Built by searches
    that keep every other hom of each list, it yields exactly the accepted
    pairs of the kept homs, so each component's domains are kept.
    ``enumerate_xmod_morphisms`` gives exactly the expected pairs, in order,
    and over every ordered pair of corpus crossed modules of one kind it
    finds 778 morphisms of racks and 378 of groups."""
    checked = 0
    rejected = {BoundarySquareFail: 0, ActionSquareFail: 0}
    dropped = {"f0": 0, "f1": 0}  # accepted pairs that only a dropped f0, or f1, leaves out
    rack_xmods = list(corpus.rack_xmods().values()) + _action_only_xmods()
    for family in (rack_xmods, list(corpus.group_xmods().values())):
        for x in family:
            for target in family:
                if max(target.dom.size**x.dom.size, target.cod.size**x.cod.size) > HOM_SEARCH_LIMIT:
                    continue
                tops = _homs_among(x.dom, target.dom, [list(target.dom.elements())] * x.dom.size)
                bottoms = _homs_among(x.cod, target.cod, [list(target.cod.elements())] * x.cod.size)
                expected = []
                for f0 in bottoms:
                    for f1 in tops:
                        try:
                            validate_xmod_morphism(
                                validate_hom(x.dom, target.dom, f1),
                                validate_hom(x.cod, target.cod, f0),
                                x,
                                target,
                            )
                        except (BoundarySquareFail, ActionSquareFail) as exc:
                            rejected[type(exc)] += 1
                            continue
                        expected.append((f0, f1))
                kept_tops, kept_bottoms = set(tops[::2]), set(bottoms[1::2])
                kept = [(f0, f1) for f0, f1 in expected if f0 in kept_bottoms and f1 in kept_tops]
                dropped["f0"] += sum(f0 not in kept_bottoms and f1 in kept_tops for f0, f1 in expected)
                dropped["f1"] += sum(f0 in kept_bottoms and f1 not in kept_tops for f0, f1 in expected)
                enumerated = [(m.f0.map, m.f1.map) for m in enumerate_xmod_morphisms(x, target)]
                assert enumerated == expected, (x, target)
                ns = x.cod.size
                for top, bottom, want in (
                    (
                        lambda *v: hom_search(x.dom, target.dom, *v),
                        lambda *v: hom_search(x.cod, target.cod, *v),
                        expected,
                    ),
                    (_listing(tops[::2]), _listing(bottoms[1::2]), kept),
                ):
                    found = assignments(morphism_search(x, target, top, bottom))
                    assert [(f[:ns], f[ns:]) for f in found] == want, (x, target)
                checked += 1
    assert checked > 200
    assert min(rejected.values()) > 0
    assert min(dropped.values()) > 0
    totals = [
        sum(len(enumerate_xmod_morphisms(x, y)) for x in catalog for y in catalog)
        for catalog in (corpus.rack_xmods().values(), corpus.group_xmods().values())
    ]
    assert totals == [778, 378]

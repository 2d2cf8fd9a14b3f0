"""The backtracking kernel against the filtered full product."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from rackmod import corpus
from rackmod.errors import AxiomError
from rackmod.search import assignments, hom_search, squares_hold, xmod_squares
from rackmod.tables import validate_hom


@st.composite
def problems(draw):
    """Small domains and pairwise constraints, each a set of forbidden value pairs."""
    domains = draw(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=5))
    variables = st.integers(0, max(len(domains) - 1, 0))
    pairs = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6)
    constraints = draw(st.lists(st.tuples(variables, variables, pairs), max_size=6)) if domains else []
    return domains, constraints


def _filed(problem):
    """The per-level test of a problem's constraints and its filtered full product."""
    domains, constraints = problem
    by_last = [[] for _ in domains]
    for i, j, forbidden in constraints:
        by_last[max(i, j)].append((i, j, forbidden))

    def holds(k, assign):
        return all((assign[i], assign[j]) not in forbidden for i, j, forbidden in by_last[k])

    expected = [
        p
        for p in product(*domains)
        if all((p[i], p[j]) not in forbidden for i, j, forbidden in constraints)
    ]
    return holds, expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problems())
def test_assignments_are_the_filtered_product_in_order(problem):
    holds, expected = _filed(problem)
    assert list(assignments(problem[0], holds)) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problems(), st.data())
def test_prefix_domains_that_keep_every_survivor_give_the_filtered_product(problem, data):
    """A domain computed from the prefix may drop any value that fails at its
    level and keep any that does not; the result stays the filtered product."""
    domains, _ = problem
    holds, expected = _filed(problem)

    def survivors(k, kept):
        def domain(assign):
            prefix = assign[:k]
            return [v for v in domains[k] if v in kept or holds(k, prefix + [v])]

        return domain

    mixed = [
        survivors(k, data.draw(st.frozensets(st.integers(0, 3)))) if data.draw(st.booleans()) else d
        for k, d in enumerate(domains)
    ]
    assert list(assignments(mixed, holds)) == expected


def test_no_variables_give_the_empty_assignment():
    calls = []
    assert list(assignments([], lambda k, assign: calls.append(k))) == [()]
    assert calls == []


def test_an_empty_domain_gives_nothing():
    assert list(assignments([[0, 1], [], [0]], lambda k, assign: True)) == []


def test_a_failing_prefix_is_abandoned():
    calls = []

    def holds(k, assign):
        calls.append((k, assign[k]))
        return k > 0 or assign[0] == 1

    assert list(assignments([[0, 1], [0, 1]], holds)) == [(1, 0), (1, 1)]
    assert calls == [(0, 0), (0, 1), (1, 0), (1, 1)]


def _squares_commute(x, target, f1, f0):
    """Both squares of (f1, f0): x -> target, checked element by element."""
    return all(
        target.boundary.map[f1[r]] == f0[x.boundary.map[r]] for r in x.dom.elements()
    ) and all(
        f1[x.act(r, s)] == target.act(f1[r], f0[s])
        for r in x.dom.elements()
        for s in x.cod.elements()
    )


def test_xmod_squares_are_the_morphism_squares_filed_by_last_variable():
    sources = corpus.rack_xmods().values()
    targets = list(corpus.rack_xmods().values()) + list(corpus.group_xmods().values())
    checked = 0
    for x in sources:
        m, n = x.dom.size, x.cod.size
        # f1 first then f0, and f0 first then f1
        for var1, var0 in ((range(m), range(m, m + n)), (range(n, n + m), range(n))):
            filed = xmod_squares(x, var1, var0, m + n)
            assert sum(len(b) for b, _ in filed) == m
            assert sum(len(a) for _, a in filed) == m * n
            for k, (boundary, action) in enumerate(filed):
                assert all(max(square) == k for square in boundary + action)
            for target in targets:
                if target.dom.size ** m * target.cod.size ** n > 2000:
                    continue
                for f1 in product(target.dom.elements(), repeat=m):
                    for f0 in product(target.cod.elements(), repeat=n):
                        assign = [None] * (m + n)
                        for variable, value in zip(var1, f1):
                            assign[variable] = value
                        for variable, value in zip(var0, f0):
                            assign[variable] = value
                        d, act = target.boundary.map, target.act
                        got = all(squares_hold(sq, assign, d, act) for sq in filed)
                        assert got == _squares_commute(x, target, f1, f0)
                        checked += 1
    assert checked > 10_000


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
                        domains, holds = hom_search(dom, cod, var, n, allowed)
                        found = [tuple(f[v] for v in var) for f in assignments(domains, holds)]
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

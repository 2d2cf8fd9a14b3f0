"""The backtracking kernel against the filtered full product."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from rackmod.search import assignments


@st.composite
def problems(draw):
    """Small domains and pairwise constraints, each a set of forbidden value pairs."""
    domains = draw(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=5))
    variables = st.integers(0, max(len(domains) - 1, 0))
    pairs = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6)
    constraints = draw(st.lists(st.tuples(variables, variables, pairs), max_size=6)) if domains else []
    return domains, constraints


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problems())
def test_assignments_are_the_filtered_product_in_order(problem):
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
    assert list(assignments(domains, holds)) == expected


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

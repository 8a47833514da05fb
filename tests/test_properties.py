"""Property tests: the merge inverts to the split, and the canonical format
reads back every value it writes.

Flat tableaux are drawn from the enumerated pools of small shapes, pairs of
them are merged into domino tableaux, and polynomials are drawn term by term.
"""

import json
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from dominotab import canonical
from dominotab.bijections import gamma_merge, gamma_split
from dominotab.partitions import partitions_up_to
from dominotab.polyring import Polynomial
from dominotab.tableaux import FAMILIES, Family, enumerate_tableaux

# Letters per family: shifted set-valued fills over three letters number 63.
LETTERS = {"plain": 3, "set-valued": 3, "shifted": 3, "shifted-set-valued": 2}
MAX_HALF_SIZE = 5


@lru_cache(maxsize=None)
def pool(family: Family, shape: tuple) -> list:
    return enumerate_tableaux(family, shape, LETTERS[family.name])


@lru_cache(maxsize=None)
def half_shapes(family: Family) -> list:
    """The shapes of a merge half with at least one tableau; shifted halves
    must be staircase admissible (last part at least the number of parts)."""
    return [
        lam
        for lam in partitions_up_to(MAX_HALF_SIZE)
        if (not family.shifted or not lam or lam[-1] >= len(lam)) and pool(family, lam)
    ]


@st.composite
def flat_pairs(draw):
    family = draw(st.sampled_from(sorted(FAMILIES.values(), key=lambda f: f.name)))
    shapes = st.sampled_from(half_shapes(family))
    t1 = draw(shapes.flatmap(lambda lam: st.sampled_from(pool(family, lam))))
    t2 = draw(shapes.flatmap(lambda lam: st.sampled_from(pool(family, lam))))
    return family, t1, t2


@given(flat_pairs())
@settings(max_examples=150, deadline=None)
def test_split_inverts_merge(pair):
    family, t1, t2 = pair
    assert gamma_split(gamma_merge(family, t1, t2)) == (t1, t2)


@st.composite
def polynomials(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    monomials = st.tuples(*[st.integers(min_value=0, max_value=40)] * n)
    terms = draw(st.dictionaries(monomials, st.integers(), max_size=8))
    return Polynomial(n, terms)


values = st.one_of(
    flat_pairs().map(lambda pair: pair[1]),
    flat_pairs().map(lambda pair: gamma_merge(*pair)),
    flat_pairs().map(lambda pair: gamma_merge(*pair).paving()),
    polynomials(),
)


@given(values)
@settings(max_examples=200, deadline=None)
def test_parse_reads_back_serialize(value):
    assert canonical.parse(canonical.serialize(value)) == value


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.sampled_from(["X", "1", "2'", "H", "V", "plain", "shifted-set-valued"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["family", "shape", "rows", "dominoes", "row", "col", "orient", "fill",
             "terms", "exps", "coeff", "n"]
        ),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=300, deadline=None)
def test_parse_accepts_or_rejects_any_json(data):
    """Any JSON text either parses or raises ValueError, never another error."""
    try:
        canonical.parse(json.dumps(data))
    except ValueError:
        pass

"""The value contract of the package's immutable values: ``Family``,
``Tableau``, ``ReadingWord``, ``Paving``, ``Polynomial``, ``DominoTableau``
and ``VerificationReport``.

Equal values compare and hash equal, and a value hashes like the tuple of
its fields (``Polynomial`` by its own rule, over its terms as a set).  The
``repr`` is the field form ``Name(field=value, ...)``.  No field can be
assigned or deleted.  Pickling and deep copies give
back an equal value: reports cross the process pool of a parallel sweep.
``Paving`` and ``Polynomial`` check their input however they are built.
"""

import copy
import pickle

import pytest

from dominotab.domino_tableaux import DominoTableau, make_domino_tableau
from dominotab.pavings import Paving, domino
from dominotab.polyring import Polynomial
from dominotab.tableaux import PLAIN, SET_VALUED, Family, ReadingWord, make_tableau, reading_word
from dominotab.verify import VerificationReport, verify_identity

PLAIN_REPR = "Family(name='plain', set_valued=False, shifted=False)"


def _tableau(top=4):
    return make_tableau(PLAIN, (2, 1), [[(2,), (top,)], [(4,)]])


def _domino_tableau(fill=(2,)):
    return make_domino_tableau(PLAIN, (2, 2), [(domino(2, 1, True), (4,)), (domino(1, 1, True), fill)])


def _report(elapsed_us=7):
    r = verify_identity(PLAIN, (2,), 2)
    return VerificationReport(*[getattr(r, f) for f in REPORT_FIELDS[:-1]], elapsed_us)


REPORT_FIELDS = (
    "family", "lam", "mu", "nu", "n", "lhs", "rhs", "status", "first_diff", "elapsed_us"
)

# Per type: a value, an equal one built another way, a different one, the
# field names, and the exact repr of the first.
CASES = {
    "Family": (
        lambda: Family("plain", set_valued=False, shifted=False),
        lambda: PLAIN,
        lambda: SET_VALUED,
        ("name", "set_valued", "shifted"),
        PLAIN_REPR,
    ),
    "Tableau": (
        _tableau,
        lambda: make_tableau(PLAIN, [2, 1], [[[2], [4]], [[4]]]),
        lambda: _tableau(top=6),
        ("family", "shape", "rows"),
        f"Tableau(family={PLAIN_REPR}, shape=(2, 1), rows=(((2,), (4,)), ((4,),)))",
    ),
    "ReadingWord": (
        lambda: reading_word(_tableau()),
        lambda: ReadingWord(start=-1, step=1, segments=(((4,),), ((2,),), ((4,),))),
        lambda: reading_word(_tableau(top=6)),
        ("start", "step", "segments"),
        "ReadingWord(start=-1, step=1, segments=(((4,),), ((2,),), ((4,),)))",
    ),
    "Paving": (
        lambda: Paving((2, 2), (domino(2, 1, True), domino(1, 1, True))),
        lambda: Paving(shape=(2, 2), dominoes=(domino(1, 1, True), domino(2, 1, True))),
        lambda: Paving((2, 2), (domino(1, 1, False), domino(1, 2, False))),
        ("shape", "dominoes"),
        "Paving(shape=(2, 2), dominoes=(Domino(row=1, col=1, horiz=True), "
        "Domino(row=2, col=1, horiz=True)))",
    ),
    "Polynomial": (
        lambda: Polynomial(2, {(1, 0): 3, (0, 1): 0}),
        lambda: Polynomial(n=2, terms={(1, 0): 3}),
        lambda: Polynomial(2, {(0, 1): 3}),
        ("n", "terms"),
        "Polynomial(n=2, terms={(1, 0): 3})",
    ),
    "DominoTableau": (
        _domino_tableau,
        lambda: DominoTableau(PLAIN, (2, 2), ((domino(1, 1, True), (2,)), (domino(2, 1, True), (4,)))),
        lambda: _domino_tableau(fill=(4,)),
        ("family", "shape", "pieces"),
        f"DominoTableau(family={PLAIN_REPR}, shape=(2, 2), pieces=((Domino(row=1, col=1, "
        "horiz=True), (2,)), (Domino(row=2, col=1, horiz=True), (4,))))",
    ),
    "VerificationReport": (
        _report,
        _report,
        lambda: _report(elapsed_us=8),
        REPORT_FIELDS,
        f"VerificationReport(family={PLAIN_REPR}, lam=(2,), mu=(), nu=(1,), n=2, "
        "lhs=Polynomial(n=2, terms={(1, 0): 1, (0, 1): 1}), "
        "rhs=Polynomial(n=2, terms={(1, 0): 1, (0, 1): 1}), status='PASS', "
        "first_diff=None, elapsed_us=7)",
    ),
}

each = pytest.mark.parametrize("case", CASES)


@each
def test_equal_values_compare_and_hash_equal(case):
    make, make_equal, make_other, _, _ = CASES[case]
    a, b, c = make(), make_equal(), make_other()
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    # != is the negation of ==, also against a bare tuple of the fields.
    fields = tuple(getattr(a, f) for f in CASES[case][3])
    assert (a != fields) is not (a == fields)


@each
def test_hash_is_the_field_tuples(case):
    make, _, _, fields, _ = CASES[case]
    value = make()
    if case == "Polynomial":
        assert hash(value) == hash((value.n, frozenset(value.terms.items())))
    else:
        assert hash(value) == hash(tuple(getattr(value, f) for f in fields))


@each
def test_repr_is_the_field_form(case):
    make, _, _, _, text = CASES[case]
    assert repr(make()) == text


@each
def test_fields_cannot_be_assigned_or_deleted(case):
    make, _, _, fields, text = CASES[case]
    value = make()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, None)
        with pytest.raises(AttributeError):
            delattr(value, f)
    assert repr(value) == text


@each
def test_pickle_and_copies_give_an_equal_value(case):
    make, _, _, _, text = CASES[case]
    value = make()
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert copied == value and hash(copied) == hash(value) and repr(copied) == text


GOOD_PAVING = Paving((2, 2), (domino(1, 1, True), domino(2, 1, True)))


def test_paving_checks_its_input():
    # A domino short, and two that overlap.
    for shape, dominoes in [
        ((2, 2), (domino(1, 1, True),)),
        ((2, 2), (domino(1, 1, True), domino(1, 1, False))),
    ]:
        for build in (
            lambda: Paving(shape, dominoes),
            lambda: Paving(shape=shape, dominoes=dominoes),
            lambda: Paving._make((shape, dominoes)),
            lambda: GOOD_PAVING._replace(dominoes=dominoes),
            lambda: GOOD_PAVING._replace(shape=(3, 1)),
        ):
            with pytest.raises(ValueError, match="do not tile"):
                build()
    # The dominoes are sorted whichever way they come in.
    dominoes = GOOD_PAVING.dominoes
    assert Paving((2, 2), dominoes[::-1]).dominoes == dominoes
    assert Paving._make(((2, 2), dominoes[::-1])).dominoes == dominoes
    assert GOOD_PAVING._replace(dominoes=dominoes[::-1]) == GOOD_PAVING


def test_polynomial_checks_its_input():
    # A monomial of the wrong length, and a negative exponent.
    for n, terms in [(2, {(1,): 1}), (2, {(1, -1): 1})]:
        for build in (
            lambda: Polynomial(n, terms),
            lambda: Polynomial(n=n, terms=terms),
            lambda: Polynomial._make((n, terms)),
            lambda: Polynomial(2)._replace(terms=terms),
        ):
            with pytest.raises(ValueError, match="bad monomial"):
                build()
    with pytest.raises(ValueError, match="bad monomial"):
        Polynomial(2, {(1, 1): 1})._replace(n=3)
    # Zero coefficients are dropped, and the terms default to none.
    assert Polynomial(2, {(1, 1): 0}).terms == Polynomial(2).terms == {}
    assert Polynomial._make((2, {(1, 1): 0})).terms == {}
    assert Polynomial(2, {(1, 0): 1})._replace(terms={(1, 1): 0}).terms == {}

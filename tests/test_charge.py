from importlib import import_module

import pytest

from kncrystals import (
    CartanType,
    charge,
    charge_via_selection,
    charge_word,
    circ_ord,
    e,
    element,
    eps,
    f,
    iter_tensor_elements,
    ls_charge,
    phi,
    split_factors,
)
from kncrystals.errors import HeightsNotSorted, NotPartitionContent, OddArmSum

# the package exports the function ``charge``, which shadows the module
charge_module = import_module("kncrystals.charge")

A5 = CartanType("A", 6)
C2 = CartanType("C", 2)
C3 = CartanType("C", 3)
C5 = CartanType("C", 5)


def exrinv():
    return element(A5, [(3, 5, 6), (2, 3, 4), (1, 2, 4), (2,)])


def exchc():
    return element(C5, [(-5, -3, -2, -1), (3, -4, -3), (1, 3, -3)])


def test_ls_charge_examples():
    assert ls_charge([1, 1, 3, 2, 2, 1, 4, 3, 2, 3]) == 6
    assert ls_charge([3, 2, 1]) == 0
    assert ls_charge([1, 2, 3]) == 3


def test_ls_charge_rejects_bad_content():
    with pytest.raises(NotPartitionContent):
        ls_charge([2, 2, 1])
    with pytest.raises(NotPartitionContent):
        ls_charge([0, 1])


def test_charge_word_type_a():
    cw = charge_word(exrinv())
    assert cw.cw2 == (1, 1, 3, 2, 2, 1, 4, 3, 2, 3)
    single_a = charge_word(element(A5, [(1, 2, 3)]))
    assert single_a.cw2 == (1, 1, 1)
    # a type C column doubles under splitting, labels alternating 1', 1
    single_c = charge_word(element(C3, [(1, 2, 3)]))
    assert single_c.cw2 == (2, 1, 2, 1, 2, 1)


def test_charge_word_type_c_full_biword():
    cw = charge_word(exchc())
    assert tuple(x for x, _ in cw.biletters) == (
        -1, -1, -2, -2, -2, -2, -3, -3, -3, -3, -4, -4, -5, -5, 3, 3, 2, 2, 1, 1,
    )
    # odd labels are unprimed: 2 is 1' and 1 is 1
    assert cw.cw2 == (2, 1, 6, 4, 2, 1, 5, 3, 2, 1, 4, 3, 2, 1, 6, 4, 5, 3, 6, 5)


def test_split_form_of_exchc():
    assert split_factors(exchc()) == (
        (-5, -3, -2, -1),
        (-5, -3, -2, -1),
        (2, -4, -3),
        (3, -4, -2),
        (1, 2, -3),
        (1, 3, -2),
    )


def test_circ_ord_type_a_display():
    c = circ_ord(exrinv())
    assert c.cols == ((3, 5, 6), (3, 2, 4), (4, 2, 1), (2,))
    assert set(c.descents()) == {(1, 3), (2, 1), (3, 1), (3, 2)}
    assert sorted(c.arm(i, j) for i, j in c.descents()) == [1, 1, 2, 2]


def test_circ_ord_type_c_display():
    c = circ_ord(exchc())
    assert c.cols == (
        (-5, -3, -2, -1),
        (-5, -3, -2, -1),
        (-4, -3, 2),
        (-4, -2, 3),
        (-3, 1, 2),
        (-2, 1, 3),
    )
    assert set(c.descents()) == {(2, 4), (3, 2), (3, 4)}
    assert sorted(c.arm(i, j) for i, j in c.descents()) == [2, 2, 4]


def test_circ_ord_trivial_on_generators():
    b = element(C3, [(1, 2, 3), (1, 2, 3), (1, 2)])
    c = circ_ord(b)
    assert c.descents() == ()
    assert charge(b) == 0


def test_charge_paper_values():
    assert charge(exrinv()) == 6
    assert charge_via_selection(exrinv()) == 6
    assert charge(exchc()) == 4
    assert charge_via_selection(exchc()) == 4


def test_charge_single_pair_type_c():
    b = element(C2, [(-1,), (1,)])
    assert charge(b) == 1
    assert charge_via_selection(b) == 1


def test_descent_arm_equals_selection_exhaustive():
    shapes = [
        (CartanType("A", 3), (2, 1)),
        (CartanType("A", 3), (2, 2, 1)),
        (C2, (2, 1)),
        (C2, (2, 2, 1)),
        (C3, (2, 2)),
        (C3, (3, 2, 1)),
    ]
    for ct, heights in shapes:
        for b in iter_tensor_elements(ct, heights):
            assert charge(b) == charge_via_selection(b)


def _descents_from_cols(filling):
    key = filling.cartan.key
    cols, heights = filling.cols, filling.heights
    return tuple(
        (i + 1, j + 1)
        for j in range(len(cols) - 1)
        for i in range(heights[j + 1])
        if key(cols[j][i]) > key(cols[j + 1][i])
    )


def test_recorded_descents_match_the_produced_columns():
    for ct, heights in ((C3, (2, 2, 1)), (CartanType("A", 5), (3, 2, 1))):
        for b in iter_tensor_elements(ct, heights):
            c = circ_ord(b)
            assert c.descents() == _descents_from_cols(c), b


def test_descent_inside_a_split_pair_raises(monkeypatch):
    # a right half whose only key is below the left half's forces a descent
    # at row 1 between the columns 1 and 1' of the doubled filling
    monkeypatch.setattr(charge_module, "_key_columns", lambda ct, col: ((2,), (1,)))
    with pytest.raises(OddArmSum, match="inside the split pair"):
        circ_ord(element(C2, [(1,)]))


def test_charge_nonnegative_and_zero_iff_no_descents():
    for b in iter_tensor_elements(C2, (2, 1)):
        ch = charge(b)
        assert ch >= 0
        assert (ch == 0) == (circ_ord(b).descents() == ())


def test_charge_invariant_under_classical_operators():
    shapes = [(CartanType("A", 3), (2, 2, 1)), (C2, (2, 1)), (C3, (2, 1, 1))]
    for ct, heights in shapes:
        for b in iter_tensor_elements(ct, heights):
            c0 = charge(b)
            for i in ct.classical_indices:
                fb = f(b, i)
                if fb is not None:
                    assert charge(fb) == c0


def test_charge_drops_across_zero_raising():
    shapes = [(CartanType("A", 3), (2, 2, 1)), (C2, (2, 1)), (C2, (1, 1, 1))]
    for ct, heights in shapes:
        for b in iter_tensor_elements(ct, heights):
            if phi(b, 0) >= 1 and eps(b, 0) >= 1:
                eb = e(b, 0)
                assert eb is not None
                assert charge(eb) == charge(b) - 1


def test_heights_must_be_sorted():
    b = element(C3, [(1,), (1, 2)])
    with pytest.raises(HeightsNotSorted):
        charge(b)
    with pytest.raises(HeightsNotSorted):
        charge_word(b)
    with pytest.raises(HeightsNotSorted):
        circ_ord(b)


def test_key_pass_equals_the_filling_route():
    # charge sums arms in the key pass; circ_ord builds the filling
    for ct, heights in ((C3, (2, 2, 1)), (CartanType("A", 5), (3, 2, 1, 1))):
        for b in iter_tensor_elements(ct, heights):
            assert charge(b) == charge_module.charge_from_filling(circ_ord(b)), b


def test_circ_ord_maps_every_key_back_to_its_letter():
    for ct in (C3, A5):
        for x in ct.alphabet():
            halves = 2 if ct.family == "C" else 1
            assert circ_ord(element(ct, [(x,)])).cols == ((x,),) * halves

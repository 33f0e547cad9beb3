import random
import tracemalloc
from importlib import import_module
from itertools import cycle, islice

import pytest
from util import charge_states, clear_charge_states, fresh_python, theorem_shapes

import kncrystals.core as core_module
from kncrystals import (
    CartanType,
    TensorElement,
    charge,
    charge_via_selection,
    charge_word,
    circ_ord,
    columns,
    e,
    element,
    energy_DL,
    eps,
    f,
    iter_tensor_elements,
    ls_charge,
    phi,
    shape_heights,
    split_factors,
)
from kncrystals.errors import (
    AdmissibilityViolation,
    HeightsNotSorted,
    NotPartitionContent,
    OddArmSum,
)
from kncrystals.qpoly import _prefix_scan

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
    # the taller factor is refused before its step runs, so no transition
    # from the height-1 state is stored and the second call raises too
    for _ in range(2):
        with pytest.raises(HeightsNotSorted, match=r"heights \(1, 2\) are not weakly"):
            charge(b)
    assert (1, 2) not in charge_module._STORE[C3][(1,)][0]
    with pytest.raises(HeightsNotSorted):
        charge_word(b)
    with pytest.raises(HeightsNotSorted):
        circ_ord(b)


def _arms_by_rescan(heights):
    """The arm table as first defined: each entry counts its cells anew."""
    rows = range(max(heights) + 1)
    return tuple(
        tuple(sum(1 for h in heights[col:] if h >= row) for row in rows)
        for col in range(len(heights))
    )


def test_arm_table_from_suffix_counts_equals_the_rescan():
    for ct, mu in theorem_shapes():
        heights = shape_heights(ct, mu)
        # the filling's columns: both split halves of each factor in type C
        filling = circ_ord(TensorElement(ct, tuple(columns(ct, h)[0] for h in heights)))
        rescan = _arms_by_rescan(filling.heights)
        assert tuple(
            tuple(filling.arm(row, col) for row in range(len(arms)))
            for col, arms in enumerate(rescan)
        ) == rescan


def test_a_long_filling_reads_its_arms_in_closed_form():
    # more than 64 columns, where a per-shape table used to be rebuilt per call
    A3 = CartanType("A", 3)
    rng = random.Random(70)
    heights = (2,) * 35 + (1,) * 35
    b = TensorElement(A3, tuple(rng.choice(columns(A3, h)) for h in heights))
    expected, filling = charge(b), circ_ord(b)
    arms = [filling.arm(i, j) for i, j in filling.descents()]
    assert len(arms) > 1
    rescan = _arms_by_rescan(heights)
    assert arms == [rescan[j][i] for i, j in filling.descents()]
    assert sum(arms) == expected == charge_module.charge_from_filling(filling)


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


@pytest.fixture
def fresh_store():
    """Charge's states and transitions, empty before and after the test."""
    clear_charge_states()
    yield
    clear_charge_states()


def _sample(ct, heights, size, seed):
    rng = random.Random(seed)
    pools = [columns(ct, h) for h in heights]
    return [TensorElement(ct, tuple(map(rng.choice, pools))) for _ in range(size)]


def _assert_coded_charge_matches_both_routes(elements):
    # a first pass stores the transitions and a second reads them warm
    for _ in range(2):
        for b in elements:
            c = charge(b)
            assert c == charge_module.charge_from_filling(circ_ord(b)), b
            assert c == charge_via_selection(b), b


# Both shapes repeat adjacent height pairs, so positions with different arms
# share transitions: an arm sum stored with the step would be wrong here.
@pytest.mark.parametrize("ct, heights", [
    (CartanType("A", 3), (2, 2, 2, 1, 1, 1)),
    (C2, (2, 2, 2, 1, 1)),
])
def test_coded_charge_matches_both_routes_on_every_element(fresh_store, ct, heights):
    _assert_coded_charge_matches_both_routes(list(iter_tensor_elements(ct, heights)))


@pytest.mark.parametrize("ct, heights", [
    (C3, (2, 2, 2, 1, 1)),
    (CartanType("A", 4), (2, 2, 2, 1, 1, 1)),
])
def test_coded_charge_matches_both_routes_on_a_sample(fresh_store, ct, heights):
    _assert_coded_charge_matches_both_routes(_sample(ct, heights, 2000, seed=14))


def test_capped_tables_change_no_charge(fresh_store, monkeypatch):
    # a few transitions of each type fit, so steps are stored, run past a
    # full store, and run from states that were never registered
    cap = 30
    monkeypatch.setattr(charge_module, "STEP_TABLE_CAP", cap)
    shapes = ((C3, (2, 2, 1)), (CartanType("A", 4), (3, 2, 1, 1)))
    for ct, heights in shapes:
        for b in iter_tensor_elements(ct, heights):
            assert charge(b) == charge_via_selection(b), b
        # the scan carries states, and past the cap unregistered ones
        for factors, c, _, _ in _prefix_scan(ct, heights, _energy=False):
            assert c == charge_via_selection(TensorElement(ct, factors)), factors
        stored = sum(len(state) for (t, _), state in charge_states().items() if t == ct)
        assert stored == cap == charge_module._STORE[ct, "registry"][None]


def test_key_columns_are_kept_for_at_most_the_cap():
    # the per-column key cache is charge's other store, bounded by the same cap
    assert charge_module._key_columns.cache_info().maxsize == charge_module.STEP_TABLE_CAP


def test_a_raising_step_is_never_stored(fresh_store, monkeypatch):
    b = element(C2, [(1,)])
    monkeypatch.setattr(charge_module, "_key_columns", lambda ct, col: ((2,), (1,)))
    for _ in range(2):
        with pytest.raises(OddArmSum, match="inside the split pair"):
            charge(b)
    assert not any(charge_states().values())  # no transition was stored


@pytest.mark.parametrize("ct, factors", [
    (CartanType("A", 10**7), [(2, 3), (1,)]),
    (CartanType("A", 20), [tuple(range(1, 11)), tuple(range(2, 11))]),
    (CartanType("C", 10), [
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (2, 3, 4, 5, 6, 7, 8, 9, -1),
        (1, 3, 5, 7, -9, -4, -2), (4, 6, -6, -1), (2, -2), (-10,),
    ]),
], ids=["A1e7", "A20", "C10"])
def test_charge_over_the_rank_budget_builds_no_column_index(fresh_store, ct, factors):
    b = element(ct, factors)
    indexed = core_module._column_index.cache_info().currsize
    tracemalloc.start()
    try:
        c = charge(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == charge_via_selection(b)
    assert peak < 256 * 1024  # nothing sized by the rank
    assert core_module._column_index.cache_info().currsize == indexed
    # the element's transitions are stored, one per factor from the start
    state = charge_module._STORE[ct]
    for col in b.factors:
        state = state[col][0]  # KeyError where a transition is not stored
    assert sum(map(len, charge_states().values())) == len(b.factors)


@pytest.mark.parametrize("factors, kept", [
    (((9,),), ()),  # (9,) has height 1 but is no column of C3
    (((1, 2), (9,)), ((1, 2),)),
])
def test_a_factor_off_the_columns_stores_nothing(fresh_store, factors, kept):
    b = TensorElement(C3, factors)
    for _ in range(2):
        with pytest.raises(AdmissibilityViolation):  # as element() raises
            charge(b)
        states = charge_states()
        # the start state keeps the first factor's transition where it is a
        # column, and no state has one for (9,) or a key column of height 1
        assert tuple(states.pop((C3, None))) == kept
        assert all(len(key) == 2 and not state for (_, key), state in states.items())
        assert len(states) == len(kept)


def _long_element(ct, pattern, length, seed):
    """A random element of ``length`` factors, its heights ``pattern`` cycled and sorted."""
    heights = sorted(islice(cycle(pattern), length), reverse=True)
    rng = random.Random(seed)
    return TensorElement(ct, tuple(rng.choice(columns(ct, h)) for h in heights))


LONG = [(CartanType("A", 3), (1,)), (C3, (3, 2, 2, 1, 1))]


@pytest.mark.parametrize("length", [65, 256, 2048])
@pytest.mark.parametrize("ct, pattern", LONG)
def test_long_charge_matches_selection_and_energy(ct, pattern, length):
    b = _long_element(ct, pattern, length, seed=length)
    assert charge(b) == charge_via_selection(b) == -energy_DL(b)


@pytest.mark.parametrize("ct, pattern", LONG)
def test_a_warm_long_charge_builds_nothing(monkeypatch, ct, pattern):
    b = _long_element(ct, pattern, 300, seed=16)
    want = charge(b)

    def fail(*args):
        raise AssertionError("charge ran a step")

    for name in ("_step", "_circ_step"):
        monkeypatch.setattr(charge_module, name, fail)
    assert charge(b) == want


def test_a_product_with_no_factors_has_charge_zero():
    for ct in (C3, A5):
        assert charge(TensorElement(ct, ())) == 0


def test_clearing_the_store_drops_every_record(fresh_store):
    # a state kept past the clear would keep storing transitions the store
    # no longer holds, and the scan would store others
    ct, heights = C3, (2, 2, 1)
    elements = list(iter_tensor_elements(ct, heights))
    for b in elements:
        charge(b)
    clear_charge_states()
    assert not charge_module._STORE
    scanned = _prefix_scan(ct, heights, _energy=False)
    for (factors, c, _, _), b in zip(scanned, elements, strict=True):
        assert factors == b.factors and c == charge(b) == charge_via_selection(b), b
    # charge's states lead to the ones the scan built
    store = charge_module._STORE
    state = store[ct]
    for col in elements[-1].factors:
        state = state[col][0]
        assert state is store[ct, "registry"][state[None]]


def test_every_entry_leads_to_the_registered_state(fresh_store):
    # an entry that led to a twin of a registered state would store the
    # twin's transitions apart, and walks through the twin would miss them
    for ct, heights in ((C3, (2, 2, 1)), (CartanType("A", 4), (3, 2, 1, 1))):
        for b in iter_tensor_elements(ct, heights):
            charge(b)
        list(_prefix_scan(ct, heights, _energy=False))
    store, field = charge_module._STORE, charge_module._FIELD
    stored = [(ct, entry) for (ct, _), state in charge_states().items() for entry in state.values()]
    assert len(stored) > 100
    for ct, entry in stored:
        nxt, inc, read = entry
        key, registry = nxt[None], store[ct, "registry"]
        assert registry[key] is nxt and registry[key, inc] is entry
        assert read == field * (len(key) - 1)


_RETAINED_BY_COLD_CHARGES = """
import gc, random, tracemalloc
from kncrystals import CartanType, TensorElement, charge, columns
C5 = CartanType("C", 5)
rng = random.Random(0)
pools = [columns(C5, h) for h in (5, 4, 3, 2, 1)]
elements = [TensorElement(C5, tuple(map(rng.choice, pools))) for _ in range(10000)]
tracemalloc.start()
for b in elements:
    charge(b)
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_cold_charges_share_their_entries():
    # these 10,000 charges store about 18,300 transitions, which share about
    # 1,400 entries, and retained 1.30 MiB; an entry per transition retained
    # 2.7 MiB
    (retained,) = map(int, fresh_python(_RETAINED_BY_COLD_CHARGES))
    assert retained < 1.25 * 1.30 * 2**20

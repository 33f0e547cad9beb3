import pytest
from util import theorem_shapes

import kncrystals.core as core_module
import kncrystals.kyoto as kyoto_module
from kncrystals import (
    CartanType,
    ShapeState,
    cut_construction,
    demazure_grading,
    demazure_grading_oracle,
    demazure_walk,
    element,
    energy_DR,
    f,
    f_word,
    ground_states,
    is_ground_state,
    iter_tensor_elements,
    normalize_shape,
    shape_heights,
)
from kncrystals.errors import ShapeTooLarge

A2 = CartanType("A", 3)
C3 = CartanType("C", 3)


def example_states():
    return ground_states(C3, (1, 2, 2, 3))


def test_ground_states_example():
    states = example_states()
    assert len(states) == 3
    got = {(g.element.factors, g.weight_index) for g in states}
    assert got == {
        (((-3,), (2, 3), (-3, -2), (1, 2, 3)), 2),
        (((2,), (2, -2), (-3, -2), (1, 2, 3)), 2),
        (((-1,), (2, -2), (-3, -2), (1, 2, 3)), 0),
    }
    assert sorted(g.weight_index for g in states) == [0, 2, 2]


def test_ground_states_type_a_unique():
    for n, heights in [(2, (1, 1)), (2, (1, 1, 1)), (3, (2, 1)), (4, (3, 2, 1))]:
        assert len(ground_states(CartanType("A", n), heights)) == 1


def test_single_factor_contains_generator():
    for k in (1, 2, 3):
        states = ground_states(C3, (k,))
        assert any(g.element.factors == (tuple(range(1, k + 1)),) for g in states)


def test_ground_states_are_kyoto_highest():
    from kncrystals import eps

    for g in example_states():
        assert all(eps(g.element, i) == 0 for i in C3.classical_indices)
        assert eps(g.element, 0) <= 1


def test_walk_example():
    g = [s for s in example_states() if s.element.factors[0] == (2,)][0]
    res = demazure_walk(g)
    words = [w for _, w in res.steps]
    assert words == [
        (2, 1, 0),
        (3, 2, 2, 1, 1, 1, 0, 0),
        (3, 2, 2, 2, 1, 1, 1, 1, 0, 0),
    ]
    assert res.final.factors == ((2,), (1, 3), (1, 2), (1, 2, 3))
    shapes = [st for st, _ in res.steps]
    assert shapes == [ShapeState(0, 2, 0), ShapeState(1, 1, 0), ShapeState(1, 2, 1)]


def test_walk_intermediate_rows_match_figure():
    g = [s for s in example_states() if s.element.factors[0] == (2,)][0]
    v = g.element
    for i in (2, 1, 0):
        v = f(v, i)
    assert v.factors == ((3,), (1, 2), (-3, -2), (1, 2, 3))
    for i in (3, 2, 2, 1, 1, 1, 0, 0):
        v = f(v, i)
    assert v.factors == ((1,), (2, 3), (1, -3), (1, 2, 3))


def test_walk_final_is_unbarred_everywhere():
    for heights in [(1, 2, 2, 3), (2, 1), (1, 1, 1), (3, 2)]:
        for g in ground_states(C3, heights):
            res = demazure_walk(g)
            assert all(x > 0 for col in res.final.factors for x in col)


def test_walk_zero_steps_when_unbarred_start():
    g = [s for s in ground_states(C3, (3,)) if s.element.factors == ((1, 2, 3),)][0]
    res = demazure_walk(g)
    assert res.steps == ()
    assert res.final == g.element


def test_walk_rejects_type_a():
    g = ground_states(A2, (2, 1))[0]
    with pytest.raises(ValueError):
        demazure_walk(g)
    with pytest.raises(ValueError):
        cut_construction(g)


def test_cut_equals_walk():
    for heights in [(1, 2, 2, 3), (2, 1), (1, 1, 1), (3, 2), (2, 2, 3)]:
        for g in ground_states(C3, heights):
            assert cut_construction(g) == demazure_walk(g).final


def test_cut_example_memberships():
    g = [s for s in example_states() if s.element.factors[0] == (2,)][0]
    cut = cut_construction(g)
    assert cut.factors == ((2,), (1, 3), (1, 2), (1, 2, 3))
    # letter r sits in factor j (from the right) iff r is in that column
    memberships = {
        r: {j for j in range(1, 5) if r in cut.factor_from_right(j)}
        for r in (1, 2, 3)
    }
    assert memberships == {1: {1, 2, 3}, 2: {1, 2, 4}, 3: {1, 3}}


def test_walk_zero_arrow_count_and_energy():
    # each applied word uses k+1 zero-arrows and raises D^R by exactly that
    for heights in [(1, 2, 2, 3), (2, 2, 3)]:
        for g in ground_states(C3, heights):
            res = demazure_walk(g)
            v = g.element
            for state, word in res.steps:
                assert word.count(0) == state.k + 1
                before = energy_DR(v)
                for i in word:
                    v = f(v, i)
                assert energy_DR(v) - before == state.k + 1


def test_normalize_shape_boundaries():
    assert normalize_shape(ShapeState(0, 3, 0), 3) == ShapeState(1, 0, 0)
    assert normalize_shape(ShapeState(0, 3, 2), 3) == ShapeState(1, 2, 0)
    assert normalize_shape(ShapeState(1, 3, 3), 3) == ShapeState(3, 0, 0)
    assert normalize_shape(ShapeState(0, 2, 1), 3) == ShapeState(0, 2, 1)
    assert ShapeState(0, 2, 0).grow(3) == ShapeState(1, 1, 0)
    with pytest.raises(ValueError):
        normalize_shape(ShapeState(0, 2, 3), 3)


def test_f_word_formula():
    assert f_word(ShapeState(0, 2, 0), C3) == (2, 1, 0)
    assert f_word(ShapeState(1, 1, 0), C3) == (3, 2, 2, 1, 1, 1, 0, 0)
    assert f_word(ShapeState(1, 2, 1), C3) == (3, 2, 2, 2, 1, 1, 1, 1, 0, 0)
    assert f_word(ShapeState(0, 0, 0), C3) == (0,)


def test_oracle_targets_are_exactly_ground_states():
    # the definition, the per-element oracle and the recursive construction;
    # the one-search grading equals the per-element oracle at every vertex
    shapes = [(C3, heights) for heights in [(1, 2), (2, 1), (1, 1), (1, 1, 2)]]
    shapes += [(ct, shape_heights(ct, mu)) for ct, mu in theorem_shapes()]
    for ct, heights in shapes:
        expected = {g.element for g in ground_states(ct, heights)}
        elems = list(iter_tensor_elements(ct, heights))
        assert set(filter(is_ground_state, elems)) == expected, (ct, heights)
        oracle = {b: demazure_grading_oracle(b) for b in elems}
        assert {u_b for u_b, _ in oracle.values()} == expected, (ct, heights)
        assert demazure_grading(ct, heights) == oracle, (ct, heights)


def test_ground_states_of_many_factors(monkeypatch):
    # the chain is built on an explicit stack, so no recursion limit applies
    (state,) = ground_states(CartanType("A", 2), (1,) * 2000)
    assert len(state.element.factors) == 2000
    # states x factors are held to the vertex budget, read at call time
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 2_000)
    with pytest.raises(ShapeTooLarge):
        # 1,024 states x 20 factors
        ground_states(CartanType("C", 2), (1,) * 20)


def test_ground_states_refuse_more_factors_than_the_budget_before_the_walk(monkeypatch):
    def fail(*args):
        raise AssertionError("the chain walk started")

    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 1_000)
    # the column tables come before the first chain cell is pushed
    monkeypatch.setattr(kyoto_module, "_columns_by_eps", fail)
    with pytest.raises(ShapeTooLarge, match="2000 factors"):
        ground_states(A2, (1,) * 2000)


def test_ground_states_hold_columns_times_rank_to_the_budget(monkeypatch):
    # 150 columns pass the vertex check, but 150 x rank 150 of eps weights
    # does not pass the rank check
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 10_000)
    with pytest.raises(ShapeTooLarge):
        ground_states(CartanType("A", 150), (1,))


def test_a_chain_step_does_no_work_that_grows_with_the_rank():
    # each column's phi weight is read from the column table, so after a
    # warm-up no factor reads a single column's eps or phi again
    ct = CartanType("A", 50)
    ground_states(ct, (1,))

    def calls(k):
        before = core_module.column_eps_phi.cache_info()
        (state,) = ground_states(ct, (1,) * k)
        after = core_module.column_eps_phi.cache_info()
        assert len(state.element.factors) == k
        return after.hits + after.misses - before.hits - before.misses

    assert calls(10) == calls(400)

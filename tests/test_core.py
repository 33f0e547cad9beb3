import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from importlib import import_module
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import theorem_shapes

import kncrystals
import kncrystals.core as core_module
from kncrystals import (
    CartanType,
    TensorElement,
    classical_highest,
    classical_lowest,
    columns,
    column_e,
    column_f,
    crystal_graph,
    crystal_size,
    demazure_grading_oracle,
    e,
    element,
    eps,
    f,
    ground_states,
    involution_map,
    lusztig_involution,
    parse_filling,
    phi,
    run_bench,
    shape_heights,
    split_column,
    validate_column,
    weight,
)
from kncrystals.core import (
    _box_e,
    _box_f,
    _signature,
    _split_sets,
    check_budget,
    column_content,
    column_involution,
    iter_tensor_elements,
)
from kncrystals.errors import (
    AdmissibilityViolation,
    ComponentCorrupt,
    NotIncreasing,
    ShapeTooLarge,
)

A2 = CartanType("A", 3)
A4 = CartanType("A", 5)
C2 = CartanType("C", 2)
C3 = CartanType("C", 3)
C5 = CartanType("C", 5)


def test_total_order():
    assert C3.alphabet() == (1, 2, 3, -3, -2, -1)
    assert [C3.key(x) for x in C3.alphabet()] == [1, 2, 3, 4, 5, 6]
    assert A2.alphabet() == (1, 2, 3)


def test_validate_paper_column():
    assert validate_column(C5, (4, 5, -5, -4, -3)) == (4, 5, -5, -4, -3)
    assert validate_column(A4, (1, 3, 5)) == (1, 3, 5)


def test_validate_rejections():
    with pytest.raises(AdmissibilityViolation) as exc:
        validate_column(C2, (1, -1))
    assert exc.value.z == 1 and exc.value.gap == 1 and exc.value.bound == 1
    with pytest.raises(NotIncreasing):
        validate_column(A2, (2, 1))
    with pytest.raises(NotIncreasing):
        validate_column(C3, (-1, -2))
    with pytest.raises(AdmissibilityViolation):
        validate_column(A2, (1, 2, 3))  # height n - 1 is the cap in type A
    with pytest.raises(AdmissibilityViolation):
        validate_column(A2, (-1,))


def test_pair_condition_equals_splittability():
    # the two column admissibility definitions agree on every candidate
    for n in range(2, 6):
        ct = CartanType("C", n)
        for k in range(1, n + 1):
            for cand in itertools.combinations(ct.alphabet(), k):
                pos = {x: p for p, x in enumerate(cand, start=1)}
                pair_ok = all(
                    not (z in pos and -z in pos and pos[-z] - pos[z] <= k - z)
                    for z in range(1, n + 1)
                )
                assert pair_ok == (_split_sets(ct, cand) is not None), cand


def test_column_counts():
    # crystal_size counts columns in closed form, without building them
    for n in range(2, 7):
        ct = CartanType("C", n)
        for k in range(1, n + 1):
            expect = comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
            assert len(columns(ct, k)) == expect == crystal_size(ct, (k,))
    for n in range(2, 7):
        ct = CartanType("A", n)
        for k in range(1, n):
            assert len(columns(ct, k)) == comb(n, k) == crystal_size(ct, (k,))


def test_columns_equal_the_validated_letter_subsets():
    for fam in ("A", "C"):
        for n in range(2, 6):
            ct = CartanType(fam, n)
            letters = [x for x in range(-n, n + 1) if ct.is_letter(x)]
            for k in range(1, ct.max_height + 1):
                found = []
                for subset in itertools.combinations(letters, k):
                    try:
                        found.append(validate_column(ct, sorted(subset, key=ct.key)))
                    except AdmissibilityViolation:
                        pass
                found.sort(key=lambda c: [ct.key(x) for x in c])
                assert columns(ct, k) == tuple(found), (ct, k)


def test_tensor_elements_come_out_sorted():
    for ct, heights in ((A4, (3, 2, 2, 1)), (C3, (3, 2, 1))):
        elems = list(iter_tensor_elements(ct, heights))
        assert elems == sorted(elems, key=TensorElement.sort_key)


def test_column_set_closed_and_connected():
    # regression guard for the box reading direction of a column
    for fam, nmax in (("A", 4), ("C", 4)):
        for n in range(2, nmax + 1):
            ct = CartanType(fam, n)
            for k in range(1, ct.max_height + 1):
                cols = set(columns(ct, k))
                gen = tuple(range(1, k + 1))
                seen = {gen}
                stack = [gen]
                while stack:
                    c = stack.pop()
                    for i in ct.classical_indices:
                        for img in (column_f(ct, i, c), column_e(ct, i, c)):
                            if img is not None:
                                assert img in cols
                                if img not in seen:
                                    seen.add(img)
                                    stack.append(img)
                assert seen == cols


def test_split_examples():
    assert split_column(C5, (4, 5, -5, -4, -3)) == (
        (1, 2, -5, -4, -3),
        (4, 5, -3, -2, -1),
    )
    assert split_column(C3, (1, 2, 3)) == ((1, 2, 3), (1, 2, 3))
    assert split_column(C3, (2, -2)) == ((1, -2), (2, -1))


def test_split_halves_are_valid_columns():
    for n in (2, 3):
        ct = CartanType("C", n)
        for k in range(1, n + 1):
            for col in columns(ct, k):
                left, right = split_column(ct, col)
                validate_column(ct, left)
                validate_column(ct, right)


def test_affine_operators_on_columns():
    assert column_f(A2, 0, (3,)) == (1,)
    assert column_f(A2, 0, (1, 3)) is None
    assert column_e(C3, 0, (1, 2, 3)) == (2, 3, -1)
    assert column_f(C3, 0, (2, 3, -1)) == (1, 2, 3)
    assert f(element(A2, [(1, 2)]), 1) is None


def test_affine_rule_characterization():
    for ct in (A2, C3):
        for k in range(1, ct.max_height + 1):
            for col in columns(ct, k):
                if ct.family == "A":
                    expect_f = ct.n in col and 1 not in col
                    expect_e = 1 in col and ct.n not in col
                else:
                    expect_f = -1 in col
                    expect_e = 1 in col
                assert (column_f(ct, 0, col) is not None) == expect_f
                assert (column_e(ct, 0, col) is not None) == expect_e
                down = column_f(ct, 0, col)
                if down is not None:
                    assert column_e(ct, 0, down) == col


def test_demazure_word_prefix_example():
    v = element(C3, [(2,), (2, -2), (-3, -2), (1, 2, 3)])
    for i in (2, 1, 0):
        v = f(v, i)
        assert v is not None
    assert v.factors == ((3,), (1, 2), (-3, -2), (1, 2, 3))


def test_e_f_inverse_exhaustive():
    for ct, heights in [(A2, (2, 1)), (C2, (2, 1)), (C3, (1, 1))]:
        for b in iter_tensor_elements(ct, heights):
            for i in ct.index_set:
                fb = f(b, i)
                if fb is not None:
                    assert e(fb, i) == b
                eb = e(b, i)
                if eb is not None:
                    assert f(eb, i) == b


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    i=st.integers(min_value=0, max_value=3),
)
def test_e_f_inverse_sampled(data, i):
    ct = C3
    facs = tuple(
        data.draw(st.sampled_from(columns(ct, h))) for h in (3, 2, 2, 1)
    )
    b = element(ct, facs)
    fb = f(b, i)
    if fb is not None:
        assert e(fb, i) == b


def test_eps_phi_closed_form_matches_iteration():
    for ct, heights in [(A2, (2, 1)), (C2, (2, 2))]:
        for b in iter_tensor_elements(ct, heights):
            for i in ct.index_set:
                k = 0
                cur = b
                while (nxt := e(cur, i)) is not None:
                    cur = nxt
                    k += 1
                assert eps(b, i) == k
                k = 0
                cur = b
                while (nxt := f(cur, i)) is not None:
                    cur = nxt
                    k += 1
                assert phi(b, i) == k


def _reduce_word(pairs):
    """Reference: write '+'^phi '-'^eps per entry and cancel "-+" pairs."""
    word = [(s, idx) for idx, (e_, p) in enumerate(pairs) for s in "+" * p + "-" * e_]
    stack = []
    for s, idx in word:
        if s == "+" and stack and stack[-1][0] == "-":
            stack.pop()
        else:
            stack.append((s, idx))
    plus = [idx for s, idx in stack if s == "+"]
    minus = [idx for s, idx in stack if s == "-"]
    return len(minus), len(plus), plus[-1] if plus else None, minus[0] if minus else None


def test_signature_matches_the_reduced_word():
    entries = list(itertools.product(range(3), repeat=2))
    table = {pair: (*pair, None, None) for pair in entries}
    for n in range(1, 4):
        for pairs in itertools.product(entries, repeat=n):
            assert _signature(table, pairs) == _reduce_word(pairs), pairs


def _by_the_box_word(b, i):
    """(eps_i, phi_i, f_i b, e_i b) from the reduced word of all of b's boxes.

    The boxes are read factor by factor left to right, each column bottom to
    top; no column rule and no operator table is read.
    """
    ct = b.cartan
    boxes = [(k, x) for k, col in enumerate(b.factors) for x in reversed(col)]
    pairs = [(int(_box_e(ct, i, x) is not None), int(_box_f(ct, i, x) is not None))
             for _, x in boxes]
    eps_i, phi_i, f_at, e_at = _reduce_word(pairs)

    def act(at, box_op):
        if at is None:
            return None
        k, x = boxes[at]
        col = [box_op(ct, i, y) if y == x else y for y in b.factors[k]]
        facs = b.factors[:k] + (tuple(sorted(col, key=ct.key)),) + b.factors[k + 1 :]
        return TensorElement(ct, facs)

    return eps_i, phi_i, act(f_at, _box_f), act(e_at, _box_e)


def test_operators_are_the_reduced_word_of_every_box():
    checked = 0
    for ct, mu in theorem_shapes():
        for b in iter_tensor_elements(ct, shape_heights(ct, mu)):
            for i in ct.classical_indices:
                assert (eps(b, i), phi(b, i), f(b, i), e(b, i)) == _by_the_box_word(b, i), (b, i)
            checked += 1
    assert checked == 2181


def _affine_by_closed_form(ct, col):
    """(eps_0, phi_0, f_0, e_0) of a column, written out.

    In type A, f_0 trades n for 1 and e_0 trades 1 for n, each where the
    column holds just one of the two; in type C, f_0 trades 1-bar for 1 and
    e_0 trades 1 for 1-bar.
    """
    if ct.family == "A":
        lower, lift = ct.n in col and 1 not in col, 1 in col and ct.n not in col
        down, up = {ct.n: 1}, {1: ct.n}
    else:
        lower, lift = -1 in col, 1 in col
        down, up = {-1: 1}, {1: -1}

    def moved(swap):
        return tuple(sorted((swap.get(x, x) for x in col), key=ct.key))

    return int(lift), int(lower), moved(down) if lower else None, moved(up) if lift else None


def test_column_codes_are_the_reduced_word_of_every_box():
    # the per-column data the energy table builders read, by code: under a
    # classical index the reduced word of the column's boxes, under index 0
    # the closed forms; every column of A_n, n = 2..7, and C_n, n = 2..5
    energy_module = import_module("kncrystals.energy")
    cartans = [CartanType("A", n) for n in range(2, 8)] + [CartanType("C", n) for n in range(2, 6)]
    for ct in cartans:
        for h in range(1, ct.max_height + 1):
            cols = columns(ct, h)
            code = {c: k for k, c in enumerate(cols)}
            for i in ct.index_set:
                want = []
                for col in cols:
                    if i:
                        eps_i, phi_i, fb, eb = _by_the_box_word(TensorElement(ct, (col,)), i)
                        down, up = (None if b is None else b.factors[0] for b in (fb, eb))
                    else:
                        eps_i, phi_i, down, up = _affine_by_closed_form(ct, col)
                    want.append((eps_i, phi_i, *(-1 if t is None else code[t] for t in (down, up))))
                assert energy_module._column_codes(ct, h, i) == tuple(zip(*want)), (ct, h, i)


def test_operator_tables_hold_only_the_columns_met():
    ct = CartanType("A", 10**6)
    b = element(ct, [(1, 2, 5), (3, 10**6)])
    letters = {x for col in b.factors for x in col}
    built = columns.cache_info().currsize
    for i in (0, 1, 2, 4, 10**6 - 1):
        core_module._TABLES.pop((ct, i), None)  # refilled on first sight
        for op in (f, e, eps, phi):
            start = time.perf_counter()
            op(b, i)
            assert time.perf_counter() - start < 1, (op, i)
        table = core_module._TABLES[ct, i]
        assert {k for k in table if isinstance(k, tuple)} == set(b.factors)
        assert set(table) <= set(b.factors) | letters
    assert columns.cache_info().currsize == built


def test_phi_minus_eps_is_weight_pairing():
    for ct, heights in [(A2, (2, 1)), (C3, (2, 1))]:
        for b in iter_tensor_elements(ct, heights):
            m = weight(b)
            for i in ct.classical_indices:
                if ct.family == "C" and i == ct.n:
                    pairing = m[ct.n - 1]
                else:
                    pairing = m[i - 1] - m[i]
                assert phi(b, i) - eps(b, i) == pairing


def test_weights():
    assert weight(element(C3, [(1, 2, 3)])) == (1, 1, 1)
    assert weight(element(C3, [(2, -2)])) == (0, 0, 0)
    exchc = element(C5, [(-5, -3, -2, -1), (3, -4, -3), (1, 3, -3)])
    assert weight(exchc) == (0, -1, -1, -1, -1)


def test_eps_weight_examples():
    el = element(C3, [(1, 2, 3)])
    assert [eps(el, i) for i in C3.index_set] == [1, 0, 0, 0]
    assert phi(element(CartanType("A", 2), [(1,), (1,)]), 1) == 2
    gen = element(C3, [(1, 2)])
    assert [phi(gen, i) for i in C3.index_set] == [0, 0, 1, 0]


def test_classical_highest_and_lowest():
    for b in iter_tensor_elements(C2, (2, 1)):
        high, path = classical_highest(b)
        assert all(eps(high, i) == 0 for i in C2.classical_indices)
        cur = high
        for i in reversed(path):
            cur = f(cur, i)
        assert cur == b
        low, _ = classical_lowest(b)
        assert all(phi(low, i) == 0 for i in C2.classical_indices)


def test_involution_single_box_type_a():
    assert lusztig_involution(element(A2, [(1,)])).factors == ((3,),)
    assert lusztig_involution(element(A2, [(2,)])).factors == ((2,),)
    assert lusztig_involution(element(A2, [(3,)])).factors == ((1,),)


def test_column_involution_is_the_walk_on_every_column():
    checked = 0
    for ct in [CartanType("A", n) for n in range(2, 8)] + [
        CartanType("C", n) for n in range(2, 7)
    ]:
        for k in range(1, ct.max_height + 1):
            for col in columns(ct, k):
                walked = lusztig_involution(TensorElement(ct, (col,))).factors[0]
                assert column_involution(ct, col) == walked, (ct, col)
                checked += 1
    assert checked == 2584


def test_involution_highest_to_lowest():
    for ct, k in [(A2, 2), (C2, 2), (C3, 3)]:
        gen = element(ct, [tuple(range(1, k + 1))])
        low, _ = classical_lowest(gen)
        assert lusztig_involution(gen) == low


def test_involution_is_involution_and_flips_edges():
    for ct, heights in [(A2, (1,)), (C2, (2,)), (C2, (1, 1)), (C3, (2, 1))]:
        for b in iter_tensor_elements(ct, heights):
            sb = lusztig_involution(b)
            assert lusztig_involution(sb) == b
            for i in ct.classical_indices:
                fb = f(b, i)
                if fb is not None:
                    assert lusztig_involution(fb) == e(sb, ct.istar(i))


def _pair_shapes(ct, heights):
    return [(ct, (a, b)) for a in heights for b in heights]


def test_involution_map_is_the_per_element_involution():
    shapes = [(ct, shape_heights(ct, mu)) for ct, mu in theorem_shapes()]
    shapes += _pair_shapes(C3, (3, 2, 1)) + _pair_shapes(CartanType("A", 6), (3, 2, 1))
    checked = 0
    for ct, heights in shapes:
        image = involution_map(ct, heights)
        assert len(image) == crystal_size(ct, heights)
        for b, sb in image.items():
            assert sb == lusztig_involution(b), b
        checked += len(image)
    assert checked == 2181 + 1156 + 1681


def _redirected_edges(ct, heights):
    """Every (x, i, y) with y a vertex of the weight of e_i(x) other than e_i(x)."""
    verts = list(iter_tensor_elements(ct, heights))
    for x in verts:
        for i in ct.classical_indices:
            y = e(x, i)
            if y is not None:
                yield from ((x, i, z) for z in verts if z != y and weight(z) == weight(y))


def test_involution_map_with_a_redirected_edge_raises(monkeypatch):
    real = core_module.e
    cases = list(_redirected_edges(C2, (2, 1)))
    caught = []
    for x, i, z in cases:
        redirected = lambda b, j, x=x, i=i, z=z: z if (b, j) == (x, i) else real(b, j)
        monkeypatch.setattr(core_module, "e", redirected)
        with pytest.raises(ComponentCorrupt) as info:
            involution_map(C2, (2, 1))
        caught.append(str(info.value))
    # the image keeps its weight, so the lockstep or a second path finds it
    assert len(cases) == 26
    assert sum("reached with the images" in m for m in caught) == 5
    assert sum("not both defined" in m for m in caught) == 21


def test_involution_map_names_each_corruption(monkeypatch):
    real_e, real_highest = core_module.e, core_module.is_classical_highest
    x = element(C2, [(1, 2), (2,)])
    with monkeypatch.context() as m:
        m.setattr(core_module, "e", lambda b, j: None if (b, j) == (x, 1) else real_e(b, j))
        with pytest.raises(ComponentCorrupt, match="not both defined"):
            involution_map(C2, (2, 1))
    with monkeypatch.context() as m:
        m.setattr(core_module, "classical_lowest", lambda b: (b, ()))
        with pytest.raises(ComponentCorrupt, match="wrong weight"):
            involution_map(C2, (2, 1))
    with monkeypatch.context() as m:
        skipped = element(C2, [(2, -2), (1,)])  # the highest element of weight (1, 0)
        m.setattr(core_module, "is_classical_highest", lambda b: b != skipped and real_highest(b))
        with pytest.raises(ComponentCorrupt, match="misses"):
            involution_map(C2, (2, 1))


def test_involution_map_over_the_budget_enumerates_nothing(monkeypatch):
    def fail(*args):
        raise AssertionError("a vertex was enumerated")

    monkeypatch.setattr(core_module, "iter_tensor_elements", fail)
    with monkeypatch.context() as m:
        m.setattr(core_module, "VERTEX_BUDGET", 1000)
        with pytest.raises(ShapeTooLarge):
            involution_map(C3, (3, 2, 1))  # 2,744 vertices
    with pytest.raises(ShapeTooLarge):
        # 3,000,000 vertices pass, but not x rank 3,000,000
        involution_map(CartanType("A", 3_000_000), (1,))


def test_crystal_graph_examples():
    g = crystal_graph(A2, (1,))
    assert len(g.vertices) == 3
    classical = sorted((u.factors, i, v.factors) for u, i, v in g.edges if i != 0)
    assert classical == [(((1,),), 1, ((2,),)), (((2,),), 2, ((3,),))]
    zero = [(u.factors, v.factors) for u, i, v in g.edges if i == 0]
    assert zero == [(((3,),), ((1,),))]
    assert len(crystal_graph(C2, (1,)).vertices) == 4
    assert len(crystal_graph(C2, (2,)).vertices) == 5


def test_crystal_graph_edges_invert():
    g = crystal_graph(C2, (2, 1))
    assert len(g.vertices) == len(columns(C2, 2)) * len(columns(C2, 1))
    for u, i, v in g.edges:
        assert f(u, i) == v
        assert e(v, i) == u


def test_vertex_budget(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(core_module, "VERTEX_BUDGET", 100)
        with pytest.raises(ShapeTooLarge):
            check_budget(C3, (3, 3, 3))
    with pytest.raises(ShapeTooLarge):
        check_budget(CartanType("A", 30), (15,))
    for ct, k in ((C3, 0), (C3, 4), (A2, 3)):
        with pytest.raises(ValueError):
            crystal_size(ct, (2, k))


_DERIVED = ("max_height", "classical_indices", "index_set", "alphabet_size")


@pytest.mark.parametrize(
    "ct",
    [CartanType("A", n) for n in range(2, 10)] + [CartanType("C", n) for n in range(2, 7)],
    ids=str,
)
def test_cartan_derived_values(ct):
    # A_{n-1}^(1) has classical indices 1..n-1 over n letters, C_n^(1) has
    # 1..n over the 2n letters 1..n and their bars
    top = ct.n - 1 if ct.family == "A" else ct.n
    assert ct.max_height == top
    assert list(ct.classical_indices) == list(range(1, top + 1))
    assert list(ct.index_set) == [0, *ct.classical_indices]
    assert ct.alphabet_size == len(ct.alphabet())
    for name in _DERIVED:
        with pytest.raises(AttributeError):
            setattr(ct, name, getattr(ct, name))
    for copy in (pickle.loads(pickle.dumps(ct)), dataclasses.replace(ct)):
        assert copy == ct and hash(copy) == hash(ct)
        assert [getattr(copy, name) for name in _DERIVED] == [
            getattr(ct, name) for name in _DERIVED
        ]


def test_column_content_counts_signed_letters():
    cartans = [CartanType("A", n) for n in range(2, 8)] + [CartanType("C", n) for n in range(2, 6)]
    for ct in cartans:
        for h in range(1, ct.max_height + 1):
            for col in columns(ct, h):
                counts = Counter(col)
                expected = tuple(counts[z] - counts[-z] for z in range(1, ct.n + 1))
                assert column_content(ct, col) == expected, (ct, col)


def test_factor_indexing_from_right():
    b = element(C3, [(1, 2, 3), (1, 2), (1,)])
    assert b.factor_from_right(1) == (1,)
    assert b.factor_from_right(3) == (1, 2, 3)


_HASH_PROBE = """
import pickle, sys
from kncrystals import CartanType
fresh = [CartanType("A", 3), CartanType("C", 4)]
got = pickle.loads(sys.stdin.buffer.read())
print([hash(g) == hash(f) and g == f and {f: 1}.get(g) == 1 for g, f in zip(got, fresh)])
print([hash(f) for f in fresh])
"""


def test_cartan_hash_is_the_same_in_every_interpreter():
    # a type pickled in one interpreter must hash like the other's own
    blob = pickle.dumps([CartanType("A", 3), CartanType("C", 4)])
    src = str(Path(kncrystals.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _HASH_PROBE],
            input=blob,
            capture_output=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.decode().splitlines())
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == "[True, True]"
    assert outputs[0][1] == str([hash(CartanType("A", 3)), hash(CartanType("C", 4))])
    assert repr(CartanType("C", 4)) == "CartanType(family='C', n=4)"


def test_budget_check_stops_at_the_cap(monkeypatch):
    # C(10**12, 10**5) alone has about 2.4 million digits
    t0 = time.perf_counter()
    for ct in (CartanType("A", 10**12), CartanType("C", 10**12)):
        for k in (1, 10**5, 10**12 - 1):
            with pytest.raises(ShapeTooLarge):
                check_budget(ct, (k,))
    with pytest.raises(ShapeTooLarge):
        check_budget(C2, (1,) * 10**5)
    assert time.perf_counter() - t0 < 1.0
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 14 * 14 * 6)
    assert check_budget(C3, (3, 2, 1)) == 14 * 14 * 6
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 14 * 14 * 6 - 1)
    with pytest.raises(ShapeTooLarge):
        check_budget(C3, (3, 2, 1))
    with pytest.raises(ValueError):
        check_budget(C3, (1,) * 30 + (4,))


def test_budget_message_names_few_heights(monkeypatch):
    with pytest.raises(ShapeTooLarge) as info:
        check_budget(CartanType("A", 3), (1,) * 100000)
    message = str(info.value)
    assert len(message) < 300
    assert "100000 factors of heights (1, 1, 1, 1, 1, 1, 1, 1, ...)" in message
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 10)
    with pytest.raises(ShapeTooLarge, match=r"2 factors of heights \(3, 2\) of C3"):
        check_budget(C3, (3, 2))


# the search from this element of C4 (4,3,3,2,2,1,1) visits 2,767 vertices
_ORACLE_START = "C4; 3,4,-4,-3 | 3,-4,-2 | 2,3,-3 | 1,3 | -3,-1 | 1 | 2"
# route -> (its work - 1, the largest budget that refuses it; the call; the
# words of the refusal that name the work)
_REFUSALS = {
    "shape_heights": (999, lambda: shape_heights(A2, (1_000,)), "mu[0] = 1000 factors"),
    "ground_states-factors": (
        999, lambda: ground_states(A2, (1,) * 1_000), "1000 factors"),
    # 4 states x 4 factors
    "ground_states-states": (
        15, lambda: ground_states(C2, (1,) * 4), "4 states x 4 factors"),
    # 100 trials x (3 factor draws + 3 D^L steps of 3 factors)
    "run_bench": (
        599, lambda: run_bench(A2, (1, 1, 1), trials=100, repeats=1), "100 trials x 6"),
    # 2,767 visited vertices x rank 4
    "demazure_grading_oracle": (
        4 * 2_767 - 1, lambda: demazure_grading_oracle(parse_filling(_ORACLE_START)),
        "2767 vertices x rank 4 visited"),
    # 14 x 14 x 6 vertices
    "check_budget-vertices": (
        1_175, lambda: check_budget(C3, (3, 2, 1)), "more than 1175 vertices"),
    "check_budget-rank": (
        3 * 1_176 - 1, lambda: check_budget(C3, (3, 2, 1), C3.n),
        "1176 vertices x rank 3"),
}


@pytest.mark.parametrize("route", _REFUSALS)
def test_every_refusal_passes_the_one_gate(route, monkeypatch):
    # each route passes a budget equal to its work and is refused one unit under it
    budget, run, work = _REFUSALS[route]
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", budget + 1)
    run()
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", budget)
    with pytest.raises(ShapeTooLarge) as info:
        run()
    assert work in str(info.value)
    assert f"exceed the budget {budget}" in str(info.value)


def test_a_passing_gate_formats_nothing(monkeypatch):
    b = parse_filling(_ORACLE_START)

    def fail(*args):
        raise AssertionError("a budget message was formatted")

    # the oracle passes the gate once per visited vertex
    monkeypatch.setattr(sys.modules["kncrystals.serialize"], "serialize_filling", fail)
    monkeypatch.setattr(CartanType, "__str__", fail)
    demazure_grading_oracle(b)
    ground_states(C3, (3, 2, 1))
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 2**100_000)
    assert check_budget(CartanType("A", 2), (1,) * 100_000) == 2**100_000

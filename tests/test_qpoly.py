import pytest
from util import partitions_of

import kncrystals.core as core_module
import kncrystals.qpoly as qpoly_module
from kncrystals import (
    CartanType,
    conjugate,
    crystal_size,
    dominant_contents,
    element,
    energy_DL,
    iter_tensor_elements,
    kostka_foulkes,
    macdonald_p_q0,
    one_dim_sum_X,
    schur_content_multiplicities,
    schur_expansion_reconstruction,
    shape_heights,
    sort_via_rmatrix,
)
from kncrystals.core import check_budget
from kncrystals.qpoly import highest_weight_elements
from kncrystals.errors import EnergyInconsistent, ShapeTooLarge, WeightMismatch

A1 = CartanType("A", 2)
C2 = CartanType("C", 2)
C3 = CartanType("C", 3)


def test_conjugate():
    assert conjugate((3, 3, 1)) == (3, 2, 2)
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate((4, 2)) == (2, 2, 1, 1)
    with pytest.raises(ValueError):
        conjugate((1, 2))


def test_conjugate_is_the_column_lengths():
    # the column lengths, counted part by part, on every partition of 1..8
    for size in range(1, 9):
        for mu in partitions_of(size):
            expected = tuple(sum(1 for p in mu if p >= i) for i in range(1, mu[0] + 1))
            assert conjugate(mu) == expected
    assert conjugate(()) == ()
    # linear in len(mu) + mu[0]: a million columns of height 1
    assert conjugate((10**6,)) == (1,) * 10**6


def test_shape_heights_refuses_more_factors_than_the_budget(monkeypatch):
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 1_000)
    assert shape_heights(C3, (1_000, 1)) == (2,) + (1,) * 999

    def fail(*args):
        raise AssertionError("mu' was built")

    # mu[0] is the factor count; mu' is not built for a longer first part
    monkeypatch.setattr(qpoly_module, "conjugate", fail)
    for mu in ((1_001,), (10**12, 3, 1)):
        with pytest.raises(ShapeTooLarge, match="factors exceed the budget 1000"):
            shape_heights(A1, mu)
    for run in (lambda: macdonald_p_q0(A1, (1_001,)),
                lambda: kostka_foulkes(A1, (1_001,), (1_001,)),
                lambda: schur_expansion_reconstruction(A1, (1_001,))):
        with pytest.raises(ShapeTooLarge):
            run()


def test_macdonald_single_box():
    p = macdonald_p_q0(A1, (1,))
    assert p.as_dict() == {(0, (1, 0)): 1, (0, (0, 1)): 1}


def test_macdonald_two_boxes_row():
    # s_2 + q s_11
    p = macdonald_p_q0(A1, (2,))
    assert p.as_dict() == {
        (0, (2, 0)): 1,
        (0, (1, 1)): 1,
        (0, (0, 2)): 1,
        (1, (1, 1)): 1,
    }


def test_macdonald_symmetric_and_counts():
    for n, mu in [(2, (2,)), (3, (2, 1)), (3, (3, 1)), (4, (2, 2, 1))]:
        ct = CartanType("A", n)
        p = macdonald_p_q0(ct, mu)
        assert p.is_symmetric()
        assert p.total() == crystal_size(ct, shape_heights(ct, mu))
    # type C enumeration count as well
    p = macdonald_p_q0(C2, (2, 1))
    assert p.total() == crystal_size(C2, (2, 1))


def test_kostka_examples():
    assert kostka_foulkes(A1, (1,), (1,)).as_dict() == {0: 1}
    assert kostka_foulkes(A1, (1, 1), (2,)).as_dict() == {1: 1}
    with pytest.raises(WeightMismatch):
        kostka_foulkes(A1, (2,), (1,))


@pytest.mark.parametrize("lam", [(1, 2), (2, 1, 0, 0), (4, -1)])
def test_lambda_must_be_a_partition_of_at_most_n_parts(lam):
    A3 = CartanType("A", 3)
    with pytest.raises(ValueError, match="not a partition"):
        kostka_foulkes(A3, lam, (2, 1))
    with pytest.raises(ValueError, match="not a partition"):
        one_dim_sum_X(A3, lam, (2, 1))


def test_schur_oracle_basic():
    assert schur_content_multiplicities(2, (1,)) == {(1, 0): 1, (0, 1): 1}
    assert schur_content_multiplicities(2, (1, 1)) == {(1, 1): 1}
    assert schur_content_multiplicities(3, (2, 1)) == {
        (2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (0, 2, 1): 1,
        (1, 0, 2): 1, (0, 1, 2): 1, (1, 1, 1): 2,
    }


def test_kostka_reconstruction_identity():
    checked = 0
    for n in (2, 3, 4):
        ct = CartanType("A", n)
        for size in range(1, 7):
            for mu in partitions_of(size):
                if conjugate(mu)[0] > ct.max_height:
                    continue
                assert schur_expansion_reconstruction(ct, mu) == macdonald_p_q0(ct, mu)
                checked += 1
    assert checked > 30


def test_energy_and_charge_generating_functions_agree():
    from kncrystals import weight

    for ct, mu in [(A1, (2,)), (CartanType("A", 3), (2, 1)), (C2, (2, 1)), (C2, (1, 1))]:
        heights = shape_heights(ct, mu)
        acc = {}
        for b in iter_tensor_elements(ct, heights):
            key = (-energy_DL(b), weight(b))
            acc[key] = acc.get(key, 0) + 1
        assert acc == macdonald_p_q0(ct, mu).as_dict()


def test_x_equals_kostka_at_inverse_q():
    for n in (2, 3):
        ct = CartanType("A", n)
        for size in range(1, 6):
            for mu in partitions_of(size):
                if conjugate(mu)[0] > ct.max_height:
                    continue
                heights = shape_heights(ct, mu)
                for lam_content in dominant_contents(ct, heights):
                    lam = tuple(p for p in lam_content if p > 0)
                    X = one_dim_sum_X(ct, lam, heights)
                    assert X == kostka_foulkes(ct, lam, mu).substitute_inverse()


def test_x_at_generator_weight():
    # lambda = sum of the column fundamental weights: a single component head
    X = one_dim_sum_X(CartanType("A", 4), (3, 2, 1), (3, 2, 1))
    assert X.as_dict() == {0: 1}


def test_x_values_c2_single_column():
    X = one_dim_sum_X(C2, (1, 1), (2,))
    assert X.as_dict() == {0: 1}
    assert one_dim_sum_X(C2, (), (2,)).as_dict() == {}


def test_exponent_signs():
    for ct, mu in [(A1, (2,)), (C2, (2, 1))]:
        p = macdonald_p_q0(ct, mu)
        assert all(a >= 0 for (a, _), _ in p.coeffs)
        heights = shape_heights(ct, mu)
        for lam_content in dominant_contents(ct, heights):
            lam = tuple(q for q in lam_content if q > 0)
            X = one_dim_sum_X(ct, lam, heights)
            assert all(a <= 0 for a, _ in X.coeffs)


def test_sort_via_rmatrix():
    b = element(C3, [(1,), (2, 3)])
    s = sort_via_rmatrix(b)
    assert s.heights == (2, 1)
    assert s.factors == ((1, 3), (2,))
    already = element(C3, [(2, 3), (1,)])
    assert sort_via_rmatrix(already) == already
    for el in iter_tensor_elements(C3, (1, 2, 2)):
        s = sort_via_rmatrix(el)
        assert s.heights == (2, 2, 1)
        assert energy_DL(s) == energy_DL(el)


def test_sort_via_rmatrix_checks_energy_without_assert(monkeypatch):
    values = iter([0, 1])
    monkeypatch.setattr(qpoly_module, "energy_DL", lambda b: next(values))
    with pytest.raises(EnergyInconsistent, match="R-matrix changed D"):
        sort_via_rmatrix(element(C3, [(1,), (2, 3)]))


def test_rank_work_is_held_to_the_budget(monkeypatch):
    # 3,555,922 columns pass the vertex budget; n entries on each do not
    huge = CartanType("A", 3555922)
    for run in (
        lambda: list(highest_weight_elements(huge, (1,))),
        lambda: dominant_contents(huge, (1,)),
        lambda: one_dim_sum_X(huge, (1,), (1,)),
        lambda: kostka_foulkes(huge, (1,), (1,)),
    ):
        with pytest.raises(ShapeTooLarge, match="rank 3555922"):
            run()
    # the largest nearby shape stays well inside: 531,441 vertices x 3
    a3 = CartanType("A", 3)
    check_budget(a3, shape_heights(a3, (12,)), a3.n)
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 3 * 531441 - 1)
    with pytest.raises(ShapeTooLarge):
        check_budget(a3, shape_heights(a3, (12,)), a3.n)

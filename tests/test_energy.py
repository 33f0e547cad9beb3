import time

import pytest
from util import energy_module

import kncrystals.core as core_module
import kncrystals.kyoto as kyoto_module
from kncrystals import (
    CartanType,
    TensorElement,
    columns,
    combinatorial_r,
    commutor,
    demazure_grading,
    demazure_grading_oracle,
    e,
    element,
    energy_DL,
    energy_DR,
    energy_report,
    eps,
    f,
    involution_map,
    is_demazure_arrow,
    iter_tensor_elements,
    local_energy,
    local_table,
    lusztig_involution,
    parse_filling,
    phi,
    tau,
)
from kncrystals.core import column_involution
from kncrystals.errors import ComponentCorrupt, ShapeTooLarge, TargetUnreachable
from kncrystals.kyoto import GroundState

A1 = CartanType("A", 2)
A2 = CartanType("A", 3)
A5 = CartanType("A", 6)
C2 = CartanType("C", 2)
C3 = CartanType("C", 3)
C5 = CartanType("C", 5)


def exrinv():
    return element(A5, [(3, 5, 6), (2, 3, 4), (1, 2, 4), (2,)])


def exchc():
    return element(C5, [(-5, -3, -2, -1), (3, -4, -3), (1, 3, -3)])


def test_local_energy_table_a1():
    # frozen by hand-running the LL/RR recursion on the four elements
    t = local_table(A1, 1, 1)
    assert t.h == {
        ((1,), (1,)): 0,
        ((1,), (2,)): 0,
        ((2,), (1,)): -1,
        ((2,), (2,)): 0,
    }


def test_sigma_generators_and_identity():
    for ct in (A2, C2, C3):
        for hl in range(1, ct.max_height + 1):
            for hr in range(1, ct.max_height + 1):
                table = local_table(ct, hl, hr)
                gl = tuple(range(1, hl + 1))
                gr = tuple(range(1, hr + 1))
                assert table.sigma[(gl, gr)] == (gr, gl)
                assert table.h[(gl, gr)] == 0
                if hl == hr:
                    assert all(k == v for k, v in table.sigma.items())


def test_sigma_paper_example():
    assert combinatorial_r(C3, (2, 3), (1,)) == ((3,), (1, 2))
    assert local_energy(C3, (2, 3), (1,)) == -1


def _insertion_family(n, h1, h2):
    """The explicit image pairs used to pin the two-column R-matrix."""
    for i in range(1, min(h2, n - h1) + 1):
        left = tuple(range(n - h1 + 1, n + 1))
        right = (
            (1,)
            + tuple(range(n - h1 - i + 2, n - h1 + 1))
            + tuple(range(n - h2 + 1, n - i + 1))
        )
        left_img = tuple(range(n - h2 + 1, n + 1))
        right_img = (1,) + tuple(range(n - h1 - i + 2, n - i + 1))
        yield i, left, right, left_img, right_img


def test_sigma_insertion_family():
    for n in (2, 3, 4):
        ct = CartanType("C", n)
        for h1 in range(1, n + 1):
            for h2 in range(1, h1 + 1):
                for i, left, right, left_img, right_img in _insertion_family(
                    n, h1, h2
                ):
                    assert combinatorial_r(ct, left, right) == (left_img, right_img)
                    assert local_energy(ct, left, right) == -i


def test_unbarred_local_energy_type_independent():
    for n in (2, 3, 4):
        ct_c = CartanType("C", n)
        ct_a = CartanType("A", n)
        for h1 in range(1, n):
            for h2 in range(1, h1 + 1):
                table = local_table(ct_c, h1, h2)
                for (l, r), value in table.h.items():
                    if all(x > 0 for x in l + r):
                        assert local_energy(ct_a, l, r) == value


def test_commutor_equals_r_matrix():
    cases = [(A2, 2, 1), (A2, 1, 2), (C2, 2, 1), (C2, 2, 2), (C3, 2, 1)]
    for ct, hl, hr in cases:
        for l in columns(ct, hl):
            for r in columns(ct, hr):
                assert commutor(ct, l, r) == combinatorial_r(ct, l, r)


def test_the_commutor_read_off_the_involution_map_is_the_per_pair_commutor():
    # the rmatrix suite reads the commutor off the map of each B_hr (x) B_hl
    for ct in (C3, A5):
        for hl in (3, 2, 1):
            for hr in (3, 2, 1):
                involution = involution_map(ct, (hr, hl))
                for l in columns(ct, hl):
                    for r in columns(ct, hr):
                        swapped = (column_involution(ct, r), column_involution(ct, l))
                        mapped = involution[TensorElement(ct, swapped)].factors
                        assert mapped == commutor(ct, l, r), (ct, l, r)


def test_sigma_commutes_with_all_operators():
    for ct, hl, hr in [(A2, 2, 1), (C2, 2, 1)]:
        table = local_table(ct, hl, hr)
        for (l, r), (l2, r2) in table.sigma.items():
            pair = TensorElement(ct, (l, r))
            image = TensorElement(ct, (l2, r2))
            for i in ct.index_set:
                fp, fi = f(pair, i), f(image, i)
                assert (fp is None) == (fi is None)
                if fp is not None:
                    assert table.sigma[fp.factors] == fi.factors


def test_h_classically_invariant_and_hs_identity():
    for ct, hl, hr in [(A2, 2, 1), (C2, 2, 1), (C2, 1, 1)]:
        table = local_table(ct, hl, hr)
        for (l, r), value in table.h.items():
            pair = TensorElement(ct, (l, r))
            for i in ct.classical_indices:
                fp = f(pair, i)
                if fp is not None:
                    assert table.h[fp.factors] == value
            sl = lusztig_involution(TensorElement(ct, (l,))).factors[0]
            sr = lusztig_involution(TensorElement(ct, (r,))).factors[0]
            assert local_energy(ct, sr, sl) == value


def test_energy_paper_examples():
    assert energy_DL(exrinv()) == -6
    assert energy_DL(exchc()) == -4
    # the type C example lives in the mu = (3,3,3,1) shape
    from kncrystals import shape_heights

    assert exchc().heights == shape_heights(C5, (3, 3, 3, 1))


def test_energy_zero_at_generators():
    for ct, heights in [(A2, (2, 2, 1)), (C3, (3, 2, 1))]:
        gens = element(ct, [tuple(range(1, h + 1)) for h in heights])
        assert energy_DL(gens) == 0
        assert energy_DR(gens) == 0


def test_dtau_exhaustive():
    for ct, heights in [(A2, (2, 1)), (A1, (1, 1, 1)), (C2, (2, 1)), (C2, (1, 1))]:
        for b in iter_tensor_elements(ct, heights):
            assert energy_DR(b) == energy_DL(tau(b))


def test_tau_involution_and_lowest():
    for b in iter_tensor_elements(C2, (2, 1)):
        assert tau(tau(b)) == b
    gens = element(C2, [(1,), (1,)])
    assert tau(gens).factors == ((-1,), (-1,))


def test_energy_increments():
    shapes = [(A1, (1, 1, 1)), (A2, (2, 1)), (C2, (2, 1)), (C2, (1, 1, 1))]
    for ct, heights in shapes:
        for b in iter_tensor_elements(ct, heights):
            if eps(b, 0) >= 1:
                fb = f(b, 0)
                if fb is not None:
                    assert energy_DR(fb) == energy_DR(b) + 1
            if phi(b, 0) >= 1:
                eb = e(b, 0)
                if eb is not None:
                    assert energy_DL(eb) == energy_DL(b) + 1


def test_energy_report_sums():
    rep = energy_report(exrinv())
    assert rep.d_left == -6
    assert rep.d_left == sum(rep.left_terms.values())
    assert rep.d_right == sum(rep.right_terms.values())
    assert len(rep.left_terms) == 6
    assert set(rep.left_terms) == {(j, i) for j in range(1, 5) for i in range(1, j)}


def test_demazure_arrow_rules():
    b = element(A2, [(1, 2)])
    assert is_demazure_arrow(b, 2) == (phi(b, 2) > 0)
    # phi_0 > 0 but eps_0 = 0: a non-Demazure 0-arrow
    c = element(A2, [(3,)])
    assert phi(c, 0) > 0 and eps(c, 0) == 0
    assert not is_demazure_arrow(c, 0)
    d = element(A2, [(3,), (1,)])
    assert eps(d, 0) >= 1 and phi(d, 0) >= 1
    assert is_demazure_arrow(d, 0)


def test_oracle_identity_exhaustive():
    shapes = [
        (A1, (1, 1, 1)),
        (A2, (2, 1)),
        (A2, (2, 2, 1)),
        (C2, (2, 1)),
        (C2, (2, 2)),
        (C3, (2, 1, 1)),
    ]
    for ct, heights in shapes:
        for b in iter_tensor_elements(ct, heights):
            u_b, m = demazure_grading_oracle(b)
            assert m == energy_DR(b) - energy_DR(u_b)
            assert all(eps(u_b, i) == 0 for i in ct.classical_indices)
            assert eps(u_b, 0) <= 1


def test_oracle_target_reached_immediately():
    b = element(C3, [(2,), (2, -2), (-3, -2), (1, 2, 3)])
    u_b, m = demazure_grading_oracle(b)
    assert u_b == b and m == 0


def test_oracle_holds_its_search_to_the_budget(monkeypatch):
    # the search from this element of C4 (4,3,3,2,2,1,1) visits 2,767 vertices
    b = parse_filling("C4; 3,4,-4,-3 | 3,-4,-2 | 2,3,-3 | 1,3 | -3,-1 | 1 | 2")
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 2_767)
    demazure_grading_oracle(b)
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 1_000)
    start = time.perf_counter()
    with pytest.raises(ShapeTooLarge):
        demazure_grading_oracle(b)
    assert time.perf_counter() - start < 1


def test_oracle_type_a_target_independent_of_element():
    for ct, heights in [(A1, (1, 1)), (A2, (2, 1)), (A2, (1, 1, 1))]:
        targets = {demazure_grading_oracle(b)[0] for b in iter_tensor_elements(ct, heights)}
        assert len(targets) == 1


def test_grading_over_the_budget_enumerates_nothing(monkeypatch):
    def fail(*args):
        raise AssertionError("a vertex was enumerated")

    monkeypatch.setattr(energy_module, "iter_tensor_elements", fail)
    with monkeypatch.context() as m:
        m.setattr(core_module, "VERTEX_BUDGET", 1000)
        with pytest.raises(ShapeTooLarge):
            demazure_grading(C3, (3, 2, 1))  # 2,744 vertices
    with pytest.raises(ShapeTooLarge):
        # 3,000,000 vertices pass, but not x rank 3,000,000
        demazure_grading(CartanType("A", 3_000_000), (1,))


@pytest.mark.parametrize("energy", [energy_DL, energy_DR, energy_report])
def test_a_refused_energy_indexes_no_column(energy):
    # each height alone passes the rank check (167,960 columns of height 9
    # x rank 20), the pair does not; the moving factor's column index waits
    # on the pair
    b = element(CartanType("A", 20), [tuple(range(1, 11)), tuple(range(2, 11))])
    before = core_module._column_index.cache_info().currsize
    with pytest.raises(ShapeTooLarge):
        energy(b)
    assert core_module._column_index.cache_info().currsize == before


def test_grading_with_an_extra_ground_state_raises(monkeypatch):
    # every vertex lies in the component of its ground state, so a vertex
    # taken for one more ground state is reached from the real one too
    real = kyoto_module.ground_states
    states = real(C2, (2, 1))
    for extra in iter_tensor_elements(C2, (2, 1)):
        if extra in {g.element for g in states}:
            continue
        monkeypatch.setattr(
            kyoto_module, "ground_states",
            lambda ct, heights, extra=extra: real(ct, heights) + [GroundState(extra, 0)],
        )
        with pytest.raises(ComponentCorrupt, match="reached from the ground states"):
            demazure_grading(C2, (2, 1))


def test_grading_with_a_ground_state_missing_raises(monkeypatch):
    real = kyoto_module.ground_states
    missed = real(C2, (2, 1))[0].element
    monkeypatch.setattr(
        kyoto_module, "ground_states",
        lambda ct, heights: [g for g in real(ct, heights) if g.element != missed],
    )
    with pytest.raises(TargetUnreachable):
        demazure_grading(C2, (2, 1))


def test_oracle_exrinv_values():
    b = exrinv()
    u_b, m = demazure_grading_oracle(b)
    assert m == 4
    assert energy_DR(b) == -4
    assert energy_DR(u_b) == -8
    assert u_b.factors == ((2, 3, 4), (1, 5, 6), (2, 3, 4), (1,))

"""Acceptance suite: one test (and one printed pass line) per criterion."""

import time

from util import theorem_shapes, partitions_of

from kncrystals import (
    CartanType,
    charge,
    circ_ord,
    combinatorial_r,
    conjugate,
    cut_construction,
    demazure_walk,
    dominant_contents,
    element,
    energy_DL,
    ground_states,
    iter_tensor_elements,
    kostka_foulkes,
    local_energy,
    ls_charge,
    macdonald_p_q0,
    one_dim_sum_X,
    run_bench,
    run_verify,
    shape_heights,
    split_column,
)

A5 = CartanType("A", 6)
C3 = CartanType("C", 3)
C5 = CartanType("C", 5)


def _report(num, detail):
    print(f"[acceptance {num}] PASS - {detail}")


def test_criterion_1_type_a_paper_example():
    t0 = time.perf_counter()
    assert ls_charge([1, 1, 3, 2, 2, 1, 4, 3, 2, 3]) == 6
    b = element(A5, [(3, 5, 6), (2, 3, 4), (1, 2, 4), (2,)])
    c = circ_ord(b)
    assert c.cols == ((3, 5, 6), (3, 2, 4), (4, 2, 1), (2,))
    assert sum(c.arm(i, j) for i, j in c.descents()) == 6
    assert charge(b) == 6
    assert energy_DL(b) == -6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"type A example: charge 6, D -6, circ-ord exact ({elapsed:.2f}s)")


def test_criterion_2_type_c_paper_example():
    t0 = time.perf_counter()
    b = element(C5, [(-5, -3, -2, -1), (3, -4, -3), (1, 3, -3)])
    from kncrystals import split_factors

    assert split_factors(b) == (
        (-5, -3, -2, -1), (-5, -3, -2, -1),
        (2, -4, -3), (3, -4, -2),
        (1, 2, -3), (1, 3, -2),
    )
    c = circ_ord(b)
    assert c.cols == (
        (-5, -3, -2, -1), (-5, -3, -2, -1),
        (-4, -3, 2), (-4, -2, 3),
        (-3, 1, 2), (-2, 1, 3),
    )
    assert set(c.descents()) == {(2, 4), (3, 2), (3, 4)}
    assert charge(b) == 4
    assert energy_DL(b) == -4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"type C example: charge 4, D -4, split and circ-ord exact ({elapsed:.2f}s)")


def test_criterion_3_split_column():
    assert split_column(C5, (4, 5, -5, -4, -3)) == (
        (1, 2, -5, -4, -3),
        (4, 5, -3, -2, -1),
    )
    _report(3, "split of (4,5,5b,4b,3b) matches the displayed pair")


def test_criterion_4_ground_states():
    states = ground_states(C3, (1, 2, 2, 3))
    assert len(states) == 3
    got = {(g.element.factors, g.weight_index) for g in states}
    assert got == {
        (((-3,), (2, 3), (-3, -2), (1, 2, 3)), 2),
        (((2,), (2, -2), (-3, -2), (1, 2, 3)), 2),
        (((-1,), (2, -2), (-3, -2), (1, 2, 3)), 0),
    }
    _report(4, "3 ground states with weights L2, L2, L0, elements exact")


def test_criterion_5_demazure_walk():
    states = ground_states(C3, (1, 2, 2, 3))
    g = [s for s in states if s.element.factors[0] == (2,)][0]
    res = demazure_walk(g)
    assert [w for _, w in res.steps] == [
        (2, 1, 0),
        (3, 2, 2, 1, 1, 1, 0, 0),
        (3, 2, 2, 2, 1, 1, 1, 1, 0, 0),
    ]
    assert res.final.factors == ((2,), (1, 3), (1, 2), (1, 2, 3))
    assert cut_construction(g) == res.final
    _report(5, "walk words f0f1f2 / f0^2f1^3f2^2f3 / f0^2f1^4f2^3f3, final exact, cut agrees")


def test_criterion_6_r_matrix_and_local_energy():
    assert combinatorial_r(C3, (2, 3), (1,)) == ((3,), (1, 2))
    assert local_energy(C3, (2, 3), (1,)) == -1
    _report(6, "sigma((2,3)(x)(1)) = (3)(x)(1,2) and H = -1")


def test_criterion_7_theorem_exhaustive():
    t0 = time.perf_counter()
    total = 0
    worst = 0
    for ct, mu in theorem_shapes():
        heights = shape_heights(ct, mu)
        for b in iter_tensor_elements(ct, heights):
            worst = max(worst, abs(energy_DL(b) + charge(b)))
            total += 1
    elapsed = time.perf_counter() - t0
    assert worst == 0
    assert elapsed < 300
    _report(
        7,
        f"D = -charge on {total} elements over {len(theorem_shapes())} shapes, "
        f"max discrepancy 0 ({elapsed:.1f}s)",
    )


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    suites = ("charge", "energy", "rmatrix", "involution", "oracle")
    checks = 0
    for ct, mu in theorem_shapes():
        heights = shape_heights(ct, mu)
        report = run_verify(ct, heights, mu=mu, suites=suites)
        assert report.passed, (ct, mu, report.to_text())
        checks += sum(s["checks"] for s in report.suites.values())
    elapsed = time.perf_counter() - t0
    _report(
        8,
        f"charge/energy/R-matrix/involution/oracle suites: {checks} checks "
        f"across {len(theorem_shapes())} shapes ({elapsed:.1f}s)",
    )


def test_criterion_9_polynomial_identities():
    p = macdonald_p_q0(CartanType("A", 2), (2,))
    assert p.as_dict() == {
        (0, (2, 0)): 1, (0, (1, 1)): 1, (0, (0, 2)): 1, (1, (1, 1)): 1,
    }
    from kncrystals import schur_expansion_reconstruction

    reconstructed = 0
    for n in (2, 3, 4):
        ct = CartanType("A", n)
        for size in range(1, 7):
            for mu in partitions_of(size):
                if conjugate(mu)[0] > ct.max_height:
                    continue
                assert schur_expansion_reconstruction(ct, mu) == macdonald_p_q0(ct, mu)
                heights = shape_heights(ct, mu)
                for lam_content in dominant_contents(ct, heights):
                    lam = tuple(p for p in lam_content if p > 0)
                    X = one_dim_sum_X(ct, lam, heights)
                    assert X == kostka_foulkes(ct, lam, mu).substitute_inverse()
                reconstructed += 1
    _report(
        9,
        f"P_mu(x;q,0) = s_2 + q s_11 at mu=(2); Schur reconstruction and "
        f"X = K(1/q) on {reconstructed} shapes",
    )


def test_criterion_10_benchmark():
    t0 = time.perf_counter()
    report = run_bench(C3, (2, 2, 1, 1), trials=10_000, seed=0, repeats=3)
    elapsed = time.perf_counter() - t0
    assert report.agreement  # D = -charge on every sampled element
    assert report.charge_ns_per_element > 0
    assert report.energy_warm_ns_per_element > 0
    assert report.energy_over_charge_ratio > 0
    assert elapsed < 120
    _report(
        10,
        f"bench heights (2,2,1,1): charge {report.charge_ns_per_element:.0f} ns/el, "
        f"warm energy {report.energy_warm_ns_per_element:.0f} ns/el, "
        f"ratio {report.energy_over_charge_ratio:.2f}x, agreement on 10^4 samples "
        f"({elapsed:.1f}s)",
    )

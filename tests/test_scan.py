"""The prefix-sharing scan against the per-element routes, which stay the
oracle."""

from array import array
from importlib import import_module

import pytest
from util import clear_step_tables, theorem_shapes

import kncrystals.qpoly as qpoly_module
from kncrystals import (
    CartanType,
    charge,
    energy_DL,
    iter_tensor_elements,
    local_table,
    macdonald_p_q0,
    run_verify,
    shape_heights,
    weight,
)
from kncrystals.errors import OddArmSum, ShapeTooLarge
from kncrystals.qpoly import _prefix_scan, highest_weight_elements

# the package exports the function ``charge``, which shadows the module
charge_module = import_module("kncrystals.charge")

C2 = CartanType("C", 2)
C3 = CartanType("C", 3)
A5 = CartanType("A", 5)

EXTRA_SHAPES = [(C3, (2, 2, 1)), (C2, (2, 1, 1, 1)), (A5, (3, 2, 1, 1))]


def _shapes():
    return [(ct, shape_heights(ct, mu)) for ct, mu in theorem_shapes()] + EXTRA_SHAPES


def test_scan_matches_per_element_routes():
    for ct, heights in _shapes():
        want = [
            (b.factors, charge(b), energy_DL(b), weight(b))
            for b in iter_tensor_elements(ct, heights)
        ]
        assert list(_prefix_scan(ct, heights)) == want, (ct, heights)


def test_theorem_scan_still_compares_both_routes():
    # every vertex of C3 (2,2,1) meets the (2,2) table in its first chain;
    # the table is shared, so its coded H is raised in place and restored
    energies = local_table(C3, 2, 2).energies
    saved = energies[:]
    energies[:] = array("h", (v + 1 for v in saved))
    try:
        report = run_verify(C3, (2, 2, 1), suites=("theorem",))
    finally:
        energies[:] = saved
    assert not report.passed
    assert report.max_discrepancy > 0
    assert report.suites["theorem"]["checks"] == 14 * 14 * 6


def test_scan_descent_inside_a_split_pair_raises(monkeypatch):
    # the scan runs charge's circular step on a table miss, which reads
    # charge's key columns
    clear_step_tables()
    monkeypatch.setattr(charge_module, "_key_columns", lambda ct, col: ((2,), (1,)))
    with pytest.raises(OddArmSum, match="split pair"):
        list(_prefix_scan(C2, (1,)))


def test_budget_is_checked_before_any_scan_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("scan work started")

    monkeypatch.setattr(qpoly_module, "_prefix_scan", fail)
    monkeypatch.setattr(qpoly_module, "iter_tensor_elements", fail)
    with pytest.raises(ShapeTooLarge):
        macdonald_p_q0(C3, (2, 1), budget=10)
    with pytest.raises(ShapeTooLarge):
        list(highest_weight_elements(C3, (2, 1), budget=10))


def test_highest_weight_elements_checks_the_budget_when_called():
    # not at the first next(): the check is not deferred to iteration
    with pytest.raises(ShapeTooLarge):
        highest_weight_elements(C3, (2, 1), budget=10)


def test_macdonald_runs_no_energy_chain(monkeypatch):
    want = macdonald_p_q0(C3, (2, 1))

    def fail(*args, **kwargs):
        raise AssertionError("a D^L chain ran")

    monkeypatch.setattr(qpoly_module, "_chain_sum", fail)
    monkeypatch.setattr(qpoly_module, "_transport_plan", fail)
    assert macdonald_p_q0(C3, (2, 1)) == want
    assert {d for _, _, d, _ in _prefix_scan(C3, (2, 1), _energy=False)} == {None}


def test_an_altered_step_table_entry_fails_the_theorem_suite():
    ct, heights = CartanType("A", 3), (2, 1, 1)
    clear_step_tables()
    try:
        assert run_verify(ct, heights, suites=("theorem",)).suites["theorem"]["passed"]
        # the first factor's step from the generator column: a descent at
        # row 1 adds that row's arm to the charge of every vertex below it
        table = charge_module._STEP_TABLES[ct, 2, 2]
        table[0] |= 1 << 1
        report = run_verify(ct, heights, suites=("theorem",))
        assert not report.suites["theorem"]["passed"]
        assert report.max_discrepancy == 3
    finally:
        clear_step_tables()

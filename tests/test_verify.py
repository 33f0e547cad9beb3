"""The verification suites: check counts, failing second routes, input guards."""

import json
from importlib import import_module

import pytest

import kncrystals.core as core_module
import kncrystals.kyoto as kyoto_module
import kncrystals.verify as verify_module
from kncrystals import (
    CartanType,
    element,
    energy_DL,
    energy_DR,
    energy_report,
    ground_states,
    iter_tensor_elements,
    local_energy,
    run_verify,
)
from kncrystals.cli import main
from kncrystals.errors import CrystalError, NotFundamental

energy_module = import_module("kncrystals.energy")

A3 = CartanType("A", 3)
C2 = CartanType("C", 2)
C3 = CartanType("C", 3)
A5 = CartanType("A", 6)

PINNED_CHECKS = {
    C2: {"theorem": 20, "charge": 43, "energy": 24, "rmatrix": 417,
         "involution": 41, "oracle": 20, "kyoto": 2},
    A3: {"theorem": 9, "charge": 18, "energy": 11, "rmatrix": 188,
         "involution": 17, "oracle": 9, "kyoto": 2},
}


@pytest.mark.parametrize("ct", [C2, A3], ids=str)
def test_every_suite_check_count_is_pinned(ct):
    report = run_verify(ct, (2, 1))
    assert report.passed
    assert {name: s["checks"] for name, s in report.suites.items()} == PINNED_CHECKS[ct]


# For each generator suite, a second route patched in ``kncrystals.verify``
# so that it disagrees with the first.
BROKEN_ROUTES = [
    ("charge", "charge_via_selection", lambda b: -1),
    ("energy", "energy_DR", lambda b: 10**6),
    ("rmatrix", "involution_map",
     lambda ct, heights: {b: b for b in iter_tensor_elements(ct, heights)}),
    ("involution", "e", lambda b, i: None),
    ("oracle", "demazure_grading",
     lambda ct, heights: {b: (b, 1) for b in iter_tensor_elements(ct, heights)}),
    ("kyoto", "cut_construction", lambda g: None),
]


@pytest.mark.parametrize(
    "suite, attr, broken", BROKEN_ROUTES, ids=[suite for suite, _, _ in BROKEN_ROUTES]
)
def test_a_disagreeing_second_route_fails_the_suite(monkeypatch, suite, attr, broken):
    monkeypatch.setattr(verify_module, attr, broken)
    report = run_verify(C2, (2, 1), suites=(suite,))
    assert report.suites[suite]["passed"] is False
    assert report.suites[suite]["checks"] == PINNED_CHECKS[C2][suite]
    assert not report.passed


def test_the_oracle_suite_grades_within_the_budget_verify_was_given(monkeypatch, capsys):
    # 80 vertices x rank 2 pass the given budget but not the default one;
    # every local table (at most 20 pairs x rank 2) passes both
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 50)
    rc = main(["verify", "-t", "C", "-n", "2", "--heights", "2,1,1", "--suites", "oracle",
               "--budget", "200", "--json"])
    assert rc == 0, capsys.readouterr().err
    report = json.loads(capsys.readouterr().out)
    assert report["suites"]["oracle"] == {"passed": True, "checks": 80}
    assert core_module.VERTEX_BUDGET == 50


# The gates of lazily built tables read the budget that verify --budget set:
# 400 vertices x rank 20 pass 10,000 but not 1,000.  A20 is met by no other
# test, so no table or row of it is warm when this runs, in either file order.
@pytest.mark.parametrize("suite", ["energy", "oracle"])
def test_every_gate_of_a_verify_run_reads_its_budget(monkeypatch, capsys, suite):
    monkeypatch.setattr(core_module, "VERTEX_BUDGET", 1000)
    argv = ["verify", "-t", "A", "-n", "20", "--heights", "1,1", "--suites", suite]
    assert main(argv + ["--budget", "10000"]) == 0, capsys.readouterr().err
    assert core_module.VERTEX_BUDGET == 1000
    assert main(argv + ["--budget", "399"]) == 2
    assert "more than 399 vertices" in capsys.readouterr().err
    assert core_module.VERTEX_BUDGET == 1000


def test_an_identity_column_involution_fails_the_rmatrix_suite(monkeypatch):
    # the closed form serves the commutor's inner S and the H symmetry check
    for module in (energy_module, verify_module):
        monkeypatch.setattr(module, "column_involution", lambda ct, col: col)
    report = run_verify(C3, (2, 2), suites=("rmatrix",))
    assert report.suites["rmatrix"] == {"passed": False, "checks": 1187}


def test_a_ground_state_test_missing_one_state_fails_the_kyoto_suite(monkeypatch):
    missed = ground_states(C2, (2, 1))[0].element
    real = verify_module.is_ground_state
    monkeypatch.setattr(verify_module, "is_ground_state", lambda b: b != missed and real(b))
    report = run_verify(C2, (2, 1), suites=("kyoto",))
    assert report.suites["kyoto"] == {"passed": False, "checks": PINNED_CHECKS[C2]["kyoto"]}


def test_a_suite_named_twice_runs_once(monkeypatch):
    calls = []
    real = verify_module._SUITES["rmatrix"]
    monkeypatch.setitem(
        verify_module._SUITES, "rmatrix", lambda ct, heights: calls.append(1) or real(ct, heights)
    )
    report = run_verify(C2, (2, 1), suites=("rmatrix", "charge", "rmatrix"))
    assert len(calls) == 1
    assert list(report.suites) == ["rmatrix", "charge"]
    assert report.suites["rmatrix"] == {"passed": True, "checks": PINNED_CHECKS[C2]["rmatrix"]}


def _theorem_must_not_run(*args, **kwargs):
    raise AssertionError("a suite ran before the suite names were checked")


def test_unknown_suite_rejected_before_any_suite_runs(monkeypatch):
    monkeypatch.setattr(verify_module, "_suite_theorem", _theorem_must_not_run)
    with pytest.raises(ValueError, match="bogus"):
        run_verify(C2, (2, 1), suites=("theorem", "bogus"))


def test_cli_unknown_suite_exits_2_before_any_suite_runs(monkeypatch, capsys):
    monkeypatch.setattr(verify_module, "_suite_theorem", _theorem_must_not_run)
    rc = main(["verify", "-t", "C", "-n", "2", "--heights", "2,1",
               "--suites", "theorem,bogus"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--trials", "--repeats"])
def test_cli_bench_rejects_zero_samples(capsys, flag):
    rc = main(["bench", "-t", "C", "-n", "2", "--mu", "2,1", flag, "0"])
    assert rc == 2
    assert "ValueError" in capsys.readouterr().err


def test_ground_state_with_non_fundamental_weight_raises(monkeypatch, capsys):
    monkeypatch.setattr(kyoto_module, "_fundamental_index", lambda ct, coeffs: None)
    with pytest.raises(NotFundamental) as info:
        ground_states(C2, (2, 1))
    assert isinstance(info.value, CrystalError)
    assert main(["ground-states", "-t", "C", "-n", "2", "--heights", "2,1"]) == 2
    assert "NotFundamental" in capsys.readouterr().err


def test_energy_report_right_half_matches_energy_dr():
    for b in iter_tensor_elements(C3, (2, 2, 1)):
        rep = energy_report(b)
        assert (rep.d_left, rep.d_right) == (energy_DL(b), energy_DR(b))
    b = element(A5, [(3, 5, 6), (2, 3, 4), (1, 2, 4), (2,)])
    rep = energy_report(b)
    assert set(rep.right_terms) == {(j, i) for j in range(1, 5) for i in range(1, j)}
    for j in range(2, 5):
        # the first pair of each chain is the untransported adjacent pair
        adjacent = local_energy(A5, b.factor_from_right(j), b.factor_from_right(j - 1))
        assert rep.right_terms[(j, j - 1)] == adjacent

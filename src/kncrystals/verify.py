"""Exhaustive verification suites over a fixed tensor shape.

Each suite walks every element of the shape (or every element pair for the
pairwise R-matrix checks) and re-derives an identity from two independent
routes.  The headline check is the energy/charge identity D(b) = -charge(b).
"""

from __future__ import annotations

import time
from collections import Counter

from .charge import charge, charge_via_selection
from .core import (
    CartanType,
    TensorElement,
    check_budget,
    column_involution,
    e,
    eps,
    f,
    involution_map,
    iter_tensor_elements,
    lusztig_involution,
    phi,
)
from .energy import (
    demazure_grading,
    energy_DL,
    energy_DR,
    is_ground_state,
    local_energy,
    local_table,
    tau,
)
from .kyoto import cut_construction, demazure_walk, ground_states
from .qpoly import _prefix_scan
from .serialize import VerifyReport


def _suite_theorem(ct, heights):
    worst = 0
    checks = 0
    for _, c, d, _ in _prefix_scan(ct, heights):
        worst = max(worst, abs(d + c))
        checks += 1
    return worst == 0, checks, worst


def _suite_charge(ct, heights):
    for b in iter_tensor_elements(ct, heights):
        c0 = charge(b)
        yield c0 == charge_via_selection(b)
        for i in ct.classical_indices:
            fb = f(b, i)
            if fb is not None:
                yield charge(fb) == c0
        if phi(b, 0) >= 1 and eps(b, 0) >= 1:
            eb = e(b, 0)
            yield eb is not None and charge(eb) == c0 - 1


def _suite_energy(ct, heights):
    for b in iter_tensor_elements(ct, heights):
        yield energy_DR(b) == energy_DL(tau(b))
        if eps(b, 0) >= 1:
            fb = f(b, 0)
            if fb is not None:
                yield energy_DR(fb) == energy_DR(b) + 1
        if phi(b, 0) >= 1:
            eb = e(b, 0)
            if eb is not None:
                yield energy_DL(eb) == energy_DL(b) + 1


def _suite_rmatrix(ct, heights):
    """Pairwise checks over every ordered pair of heights in the shape."""
    for hl, hr in sorted({(a, b) for a in heights for b in heights}):
        table = local_table(ct, hl, hr)
        involution = involution_map(ct, (hr, hl))  # S on all of B_hr (x) B_hl
        gl, gr = tuple(range(1, hl + 1)), tuple(range(1, hr + 1))
        yield table.sigma[(gl, gr)] == (gr, gl)
        yield table.h[(gl, gr)] == 0
        for (l, r), (l2, r2) in table.sigma.items():
            pair = TensorElement(ct, (l, r))
            image = TensorElement(ct, (l2, r2))
            sr, sl = column_involution(ct, r), column_involution(ct, l)
            # the commutor S(S(r) (x) S(l)) equals sigma
            yield involution[TensorElement(ct, (sr, sl))].factors == (l2, r2)
            # H(b2 (x) b1) = H(S(b1) (x) S(b2))
            yield local_energy(ct, l, r) == local_energy(ct, sr, sl)
            h = table.h[(l, r)]
            for i in ct.index_set:
                # sigma commutes with f_i, and H is constant along classical
                # f_i; along f_0 it follows the LL/RR rule, rising by 1 where
                # f_0 acts on the left factor of both b and sigma(b) and
                # falling by 1 where it acts on the right factor of both
                fp = f(pair, i)
                fi = f(image, i)
                if fp is None or fi is None:
                    yield fp is None and fi is None
                    continue
                rise = 0
                if i == 0:
                    on_left, image_on_left = fp.factors[0] != l, fi.factors[0] != l2
                    rise = (on_left and image_on_left) - (not on_left and not image_on_left)
                yield table.sigma[fp.factors] == fi.factors and (
                    table.h[fp.factors] - h == rise
                )
        if ct.family == "C" and max(hl, hr) <= ct.n - 1:
            # local energies of unbarred pairs agree with type A on [n]
            ct_a = CartanType("A", ct.n)
            for (l, r), value in table.h.items():
                if all(x > 0 for x in l + r):
                    yield local_energy(ct_a, l, r) == value


def _suite_involution(ct, heights):
    for b in iter_tensor_elements(ct, heights):
        sb = lusztig_involution(b)
        yield lusztig_involution(sb) == b
        for i in ct.classical_indices:
            fb = f(b, i)
            if fb is not None:
                yield e(sb, ct.istar(i)) == lusztig_involution(fb)


def _suite_oracle(ct, heights):
    for b, (u_b, m) in demazure_grading(ct, heights).items():
        yield m == energy_DR(b) - energy_DR(u_b)


def _suite_kyoto(ct, heights):
    states = ground_states(ct, heights)
    if ct.family == "A":
        yield len(states) == 1
    else:
        for g in states:
            yield demazure_walk(g).final == cut_construction(g)
    found = set(filter(is_ground_state, iter_tensor_elements(ct, heights)))
    yield found == {g.element for g in states}


# Every suite but theorem yields one bool per check; run_verify counts them.
# Each builds what it needs behind core.check_budget, the one budget gate.
_SUITES = {
    "charge": _suite_charge,
    "energy": _suite_energy,
    "rmatrix": _suite_rmatrix,
    "involution": _suite_involution,
    "oracle": _suite_oracle,
    "kyoto": _suite_kyoto,
}
SUITE_NAMES = ("theorem",) + tuple(_SUITES)


def run_verify(ct, heights, mu=None, suites=None):
    """Run the selected suites over one shape and assemble a report.

    Unknown suite names raise ``ValueError`` before any suite runs; a name
    given twice runs once, in the place it is first given.
    """
    heights = tuple(heights)
    wanted = SUITE_NAMES if suites is None else tuple(dict.fromkeys(suites))
    for name in wanted:
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown suite {name!r}")
    # the weights and the per-index suites do rank-n work on every vertex
    size = check_budget(ct, heights, ct.n)
    t0 = time.perf_counter()
    report_suites = {}
    worst = 0
    for name in wanted:
        if name == "theorem":
            passed, checks, worst = _suite_theorem(ct, heights)
        else:
            tally = Counter(_SUITES[name](ct, heights))
            passed, checks = not tally[False], tally[True] + tally[False]
        report_suites[name] = {"passed": passed, "checks": checks}
    elapsed = time.perf_counter() - t0
    return VerifyReport(
        cartan=str(ct),
        heights=heights,
        mu=tuple(mu) if mu is not None else None,
        element_count=size,
        max_discrepancy=worst,
        elapsed_seconds=elapsed,
        suites=report_suites,
    )

"""Timing comparison between charge and the recursive energy definition."""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass

from .charge import charge
from .core import TensorElement, _require_factors, columns, hold_to_budget
from .energy import energy_DL, local_table


@dataclass
class BenchReport:
    cartan: str
    heights: tuple
    trials: int
    repeats: int
    charge_ns_per_element: float
    charge_cold_ns_per_element: float
    energy_warm_ns_per_element: float
    energy_cold_seconds: float
    energy_over_charge_ratio: float
    agreement: bool

    def to_json(self):
        doc = {**asdict(self), "schema_version": 3}
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_text(self):
        return "\n".join(
            [
                f"shape: {self.cartan} heights={list(self.heights)}",
                f"sampled elements: {self.trials} (timing repeats: {self.repeats})",
                f"charge: {self.charge_ns_per_element:.0f} ns/element (median)",
                f"charge first pass (stores its transitions): "
                f"{self.charge_cold_ns_per_element:.0f} ns/element",
                f"energy (warm tables): {self.energy_warm_ns_per_element:.0f} ns/element (median)",
                f"energy table build (cold): {self.energy_cold_seconds:.3f} s",
                f"ratio energy/charge: {self.energy_over_charge_ratio:.2f}x",
                f"values agree (D = -charge): {self.agreement}",
            ]
        )


def run_bench(ct, heights, trials=10_000, seed=0, repeats=3):
    """Sample random elements and time charge against warm-table energy.

    Every sampled element is also checked for D = -charge; the ratio is
    reported without asserting a threshold.  The shape is only sampled, so
    its vertices are not counted: a trial draws N factors and runs N(N-1)/2
    D^L chain steps, so trials x N(N+1)/2 passes the budget gate instead
    (10,000 trials admit 31 factors).  A linear energy, ROADMAP item 15,
    would relax this to trials x N.
    """
    import statistics  # here, not at module level: it pulls in fractions and decimal

    if trials < 1 or repeats < 1:
        raise ValueError(f"trials ({trials}) and repeats ({repeats}) must be >= 1")
    heights = tuple(heights)
    _require_factors(heights)
    per_trial = len(heights) * (len(heights) + 1) // 2
    hold_to_budget(trials * per_trial, lambda: f"{trials} trials x {per_trial} factor draws and "
                                               f"D^L steps of {len(heights)} factors")
    rng = random.Random(seed)
    pools = [columns(ct, h) for h in heights]
    sample = [
        TensorElement(ct, tuple(rng.choice(pool) for pool in pools))
        for _ in range(trials)
    ]

    t0 = time.perf_counter()
    charges = [charge(b) for b in sample]
    charge_cold = (time.perf_counter() - t0) * 1e9 / len(sample)

    t0 = time.perf_counter()
    for hl in set(heights):
        for hr in set(heights):
            local_table(ct, hl, hr)
    energy_DL(sample[0])
    cold = time.perf_counter() - t0

    energies = [energy_DL(b) for b in sample]
    agreement = all(d == -c for d, c in zip(energies, charges))

    # the repeats alternate, so a change of CPU speed state between them
    # weighs on both timings alike
    runs = {charge: [], energy_DL: []}
    for _ in range(repeats):
        for fn, times in runs.items():
            t0 = time.perf_counter()
            for b in sample:
                fn(b)
            times.append((time.perf_counter() - t0) * 1e9 / len(sample))
    charge_ns, energy_ns = map(statistics.median, runs.values())

    return BenchReport(
        cartan=str(ct),
        heights=heights,
        trials=trials,
        repeats=repeats,
        charge_ns_per_element=charge_ns,
        charge_cold_ns_per_element=charge_cold,
        energy_warm_ns_per_element=energy_ns,
        energy_cold_seconds=cold,
        energy_over_charge_ratio=energy_ns / charge_ns if charge_ns else 0.0,
        agreement=agreement,
    )

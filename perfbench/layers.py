"""Layer probes of the traced run.

Each probe times one batch of public calls of one layer on the workload's
own inputs (its main shape or the head of its seeded query sample), in one
span whose ``n`` is the number of calls, so that a span's seconds over ``n``
is the per-call cost.  The layer pass runs after the timed rounds and
repeats every probe, interleaved, so that the per-layer figures are medians
that a short slow spell of the CPU does not decide.
"""

from __future__ import annotations

from kncrystals.charge import charge, charge_from_filling, circ_ord
from kncrystals.core import (
    is_classical_highest,
    iter_tensor_elements,
    lusztig_involution,
    split_column,
)
from kncrystals.energy import (
    commutor,
    demazure_grading_oracle,
    energy_DL,
    energy_DR,
    local_table,
)
from kncrystals.kyoto import cut_construction, demazure_walk, ground_states
from kncrystals.qpoly import highest_weight_elements

LAYER_REPEATS = 3
LAYER_SAMPLE = 2000
# The involution and the oracle walk whole classical components, so they
# are timed on a shorter head of the sample.
LUSZTIG_SAMPLE = 500
ORACLE_SAMPLE = 200


def _batch(tracer, name, fn, items):
    with tracer.span(name, n=len(items)):
        return [fn(x) for x in items]


def _count(tracer, name, iterable):
    with tracer.span(name) as s:
        s.n = sum(1 for _ in iterable)


def probe_enumerate(w, sample, tracer):
    _count(tracer, "core.iter_tensor_elements", iter_tensor_elements(*w.shape))


def probe_highest(w, sample, tracer):
    _batch(tracer, "core.is_classical_highest", is_classical_highest, sample)


def probe_split(w, sample, tracer):
    ct = w.query_shape[0]
    with tracer.span("core.split_column", n=len(sample)):
        for b in sample:
            for col in b.factors:
                split_column(ct, col)


def probe_charge(w, sample, tracer):
    fillings = _batch(tracer, "charge.circ_ord", circ_ord, sample)
    _batch(tracer, "charge.charge_from_filling", charge_from_filling, fillings)
    _batch(tracer, "charge.charge", charge, sample)


def probe_energy(w, sample, tracer):
    _batch(tracer, "energy.energy_DL", energy_DL, sample)
    _batch(tracer, "energy.energy_DR", energy_DR, sample)


def probe_lusztig(w, sample, tracer):
    _batch(tracer, "core.lusztig_involution", lusztig_involution, sample[:LUSZTIG_SAMPLE])


def probe_oracle(w, sample, tracer):
    _batch(
        tracer, "energy.demazure_grading_oracle", demazure_grading_oracle,
        sample[:ORACLE_SAMPLE],
    )


def probe_commutor(w, sample, tracer):
    ct, heights = w.shape
    hs = sorted(set(heights))
    pairs = [lr for hl in hs for hr in hs for lr in local_table(ct, hl, hr).sigma]
    with tracer.span("energy.commutor", n=len(pairs)):
        for left, right in pairs:
            commutor(ct, left, right)


def probe_kyoto(w, sample, tracer):
    with tracer.span("kyoto.ground_states") as s:
        states = ground_states(*w.shape)
        s.n = len(states)
    with tracer.span("kyoto.demazure_walk", n=len(states)):
        for g in states:
            demazure_walk(g)
            cut_construction(g)


def probe_highest_elements(w, sample, tracer):
    _count(tracer, "qpoly.highest_weight_elements", highest_weight_elements(*w.shape))


def layer_pass(w, sample, tracer):
    """Every probe of the workload, LAYER_REPEATS times, under one span.

    Counting the highest elements enumerates the whole shape, so it runs
    once.
    """
    head = sample[:LAYER_SAMPLE]
    with tracer.span("layers"):
        for rep in range(LAYER_REPEATS):
            for name in w.layers:
                if rep == 0 or name != "highest_elements":
                    PROBES[name](w, head, tracer)


PROBES = {
    "enumerate": probe_enumerate,
    "highest": probe_highest,
    "split": probe_split,
    "charge": probe_charge,
    "energy": probe_energy,
    "lusztig": probe_lusztig,
    "oracle": probe_oracle,
    "commutor": probe_commutor,
    "kyoto": probe_kyoto,
    "highest_elements": probe_highest_elements,
}

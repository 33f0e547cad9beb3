"""Run one workload of the kncrystals benchmark once.

    python3 perfbench/run.py --workload scan_C --seed 1 --seconds 30 --trace 0

A run sets up (columns and local energy tables for every height pair the
workload uses), then runs timed rounds until about ``--seconds`` have
passed.  A round makes each of the workload's public entry calls once and
follows each call with a chunk of ``charge``/``energy_DL`` queries from one
slice of the seeded sample.  Every output is checked, between rounds and
outside every timed call; the run prints each metric with its unit and ends
with one JSON line.  With
``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
traced and untraced rounds alternate, the layer probes run after them, the
per-layer metrics are printed instead, and the spans are written to
``.bench_out/``.

Exit codes: 0 every output correct, 1 some operation failed, 2 bad
arguments or no kncrystals sources next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Cold set-ups in fresh interpreters per run, setup_s being their median: at
# least 3, and up to 9 while they fit in SETUP_BUDGET_S.  One cheap set-up
# (~80 ms) varies by +-25% from one interpreter to the next.
SETUP_SAMPLES = (3, 9)
SETUP_BUDGET_S = 2.0
QUERY_SLICES = 4  # a round queries one slice of the sample, in turn
MIN_ROUNDS = QUERY_SLICES  # so that every query runs however short --seconds is
SHOWN_FAILURES = 5
SUITES = ("theorem", "rmatrix", "involution", "oracle", "kyoto")

# Times are 90th percentiles.  The CPU of a shared 2-vCPU box switches
# between speed states about 1.6x apart every 0.3-10 s, and the share of a
# run each state holds varies from run to run.  A mean or a median follows
# that share (IQR/median up to 0.4 over five seeds for the query median);
# the 90th percentile of many short timings stays in the slow state's bulk
# (0.05-0.09).  Query medians are printed but not reported.
END_TO_END = {
    "wall_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "charge_us_p90": "us",
    "energy_us_p90": "us",
}

# Seconds of a round's calls of one public function, mean over traced rounds.
ROUND_SECONDS = {
    "qpoly.macdonald_s": "qpoly.macdonald_p_q0",
    "qpoly.kostka_s": "qpoly.kostka_foulkes",
    "qpoly.xsum_s": "qpoly.one_dim_sum_X",
    "qpoly.dominant_s": "qpoly.dominant_contents",
    **{f"verify.{s}_s": f"verify.{s}" for s in SUITES},
}

# Per-call cost from the layer probes: span seconds / calls, in the unit.
PER_CALL = {
    "core.enumerate_us_per_el": ("core.iter_tensor_elements", "us"),
    "core.highest_filter_us_per_el": ("core.is_classical_highest", "us"),
    "core.lusztig_us_per_el": ("core.lusztig_involution", "us"),
    "core.split_us_per_el": ("core.split_column", "us"),
    "charge.us_per_el": ("charge.charge", "us"),
    "charge.circ_ord_us_per_el": ("charge.circ_ord", "us"),
    "charge.arms_us_per_el": ("charge.charge_from_filling", "us"),
    "energy.DL_us_per_el": ("energy.energy_DL", "us"),
    "energy.DR_us_per_el": ("energy.energy_DR", "us"),
    "energy.oracle_ms_per_el": ("energy.demazure_grading_oracle", "ms"),
    "energy.commutor_us_per_pair": ("energy.commutor", "us"),
}
SCALE = {"us": 1e6, "ms": 1e3}

PER_LAYER = {
    "core.eps_phi_calls": "count",
    "core.column_cache_hit_ratio": "ratio",
    "energy.table_build_s": "s",
    "energy.tables_built": "count",
    "energy.table_entries": "count",
    "energy.local_lookups": "count",
    "kyoto.ground_states_s": "s",
    "kyoto.walk_s": "s",
    "kyoto.states": "count",
    "qpoly.highest_elements": "count",
    **{f"verify.{s}_checks": "count" for s in SUITES},
    **{name: "s" for name in ROUND_SECONDS},
    **{name: unit for name, (_, unit) in PER_CALL.items()},
    "trace.overhead_s": "s",
}


@dataclass
class Run:
    """Operation counts, failures and pooled query latencies of one run."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    query_values: dict = field(default_factory=dict)  # chunk key -> first charges
    charge_ns: array = field(default_factory=lambda: array("q"))
    energy_ns: array = field(default_factory=lambda: array("q"))


@dataclass
class Round:
    traced: bool
    part_seconds: dict  # part label -> seconds of the entry call
    outputs: dict  # part label -> output


def run_queries(chunk_id, chunk, run, charge, energy_DL):
    """Time charge and energy_DL on every query of a chunk.

    A query fails if a call raises, if charge != -energy_DL, or if its
    charge differs from the first time the chunk ran.
    """
    clock = time.perf_counter_ns
    first = run.query_values.get(chunk_id)
    values = []
    for j, b in enumerate(chunk):
        run.attempted += 1
        try:
            t0 = clock()
            c = charge(b)
            t1 = clock()
            d = energy_DL(b)
            t2 = clock()
        except Exception:
            run.failures.append(f"query {b} raised:\n{traceback.format_exc()}")
            values.append(None)
            continue
        run.charge_ns.append(t1 - t0)
        run.energy_ns.append(t2 - t1)
        values.append(c)
        if c != -d:
            run.failures.append(f"query {b}: charge {c} != -energy_DL {d}")
        elif first is not None and first[j] != c:
            run.failures.append(f"query {b}: charge {c}, {first[j]} in the first round")
    run.query_values.setdefault(chunk_id, values)


def run_round(w, chunks, tracer, label, run, traced):
    """Each entry call once, each followed by one chunk of queries.

    ``chunks`` lists, per entry call, a (key, queries) pair; the key names
    the chunk over the whole run.
    """
    from kncrystals.charge import charge
    from kncrystals.energy import energy_DL

    part_seconds, outputs = {}, {}
    with tracer.span(label):
        for i, part in enumerate(w.parts):
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.span(part.span, count=True):
                    outputs[part.label] = part.run()
                part_seconds[part.label] = time.perf_counter() - t0
            except Exception:
                run.failures.append(f"{part.label} raised:\n{traceback.format_exc()}")
            key, chunk = chunks[i]
            with tracer.span("queries", n=len(chunk)):
                run_queries(key, chunk, run, charge, energy_DL)
    return Round(traced, part_seconds, outputs)


def gate(w, pinned, r, run, digest):
    """Check every part output of round ``r``; one failure per bad output."""
    for part in w.parts:
        if part.label not in r.outputs:
            continue  # it raised, and was counted then
        out = r.outputs[part.label]
        problems = []
        if digest(out) != pinned.get(part.label):
            problems.append(f"digest {digest(out)} != pinned {pinned.get(part.label)}")
        message = part.check(out, r.outputs)
        if message:
            problems.append(message)
        if problems:
            run.failures.append(f"{part.label}: " + "; ".join(problems))


def probe_setup(name):
    """One cold set-up in a fresh interpreter; returns its seconds."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_samples(name):
    least, most = SETUP_SAMPLES
    samples = []
    t0 = time.perf_counter()
    while len(samples) < least or (
        len(samples) < most and time.perf_counter() - t0 < SETUP_BUDGET_S
    ):
        samples.append(probe_setup(name))
    return samples


def mean_or_zero(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values):
    """The 90th percentile; the larger value when there are only two."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 2 else max(values)


def wall(w, rounds):
    """One round's wall time with every entry call at its 90th percentile."""
    total = 0.0
    for p in w.parts:
        times = [r.part_seconds[p.label] for r in rounds if p.label in r.part_seconds]
        total += p90(times) if times else 0.0
    return total


def percentiles_us(ns):
    """(p50, p90) in microseconds; zeros when every query failed."""
    if len(ns) < 2:
        return 0.0, 0.0
    q = statistics.quantiles(ns, n=10)
    return q[4] / 1e3, q[8] / 1e3


def end_to_end_metrics(w, run, timed, setups):
    return {
        "wall_p90_s": wall(w, timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "charge_us_p90": percentiles_us(run.charge_ns)[1],
        "energy_us_p90": percentiles_us(run.energy_ns)[1],
    }


def per_layer_metrics(w, tracer, timed):
    spans = tracer.spans
    (setup,) = tracer.roots("setup")
    (layers,) = tracer.roots("layers")
    traced_rounds = tracer.roots("round")
    first = traced_rounds[0]

    def total(root, name):
        found = tracer.under(root, name)
        return sum(s.seconds for s in found), sum(s.n for s in found)

    def median_seconds(name, per_call=False):
        """Median over the layer pass's repeats of one probe's span."""
        found = tracer.under(layers, name)
        return median_or_zero(s.seconds / s.n if per_call else s.seconds for s in found)

    out = {}
    for metric, name in ROUND_SECONDS.items():
        out[metric] = mean_or_zero(
            total(r, name)[0] for r in traced_rounds if tracer.under(r, name)
        )
    for metric, (name, unit) in PER_CALL.items():
        out[metric] = median_seconds(name, per_call=True) * SCALE[unit]

    # Counts come from the first round alone, so they do not depend on how
    # many rounds fit in the run.
    counted = [s for s in spans if s.root == first and s.counts and s.parent is not None]

    def gained(counter, kind):
        return sum(s.counts[counter][kind] for s in counted)

    column = ("column_eps_phi", "column_f", "column_e")
    calls = sum(gained(c, 0) + gained(c, 1) for c in column)
    out["core.eps_phi_calls"] = gained("column_eps_phi", 0) + gained("column_eps_phi", 1)
    out["core.column_cache_hit_ratio"] = sum(gained(c, 0) for c in column) / calls if calls else 0.0
    out["energy.local_lookups"] = gained("local_table", 0)
    out["energy.table_build_s"], out["energy.table_entries"] = total(setup, "energy.local_table")
    out["energy.tables_built"] = spans[setup].counts["local_table"][1]
    states = tracer.under(layers, "kyoto.ground_states")
    out["kyoto.ground_states_s"] = median_seconds("kyoto.ground_states")
    out["kyoto.states"] = states[0].n if states else 0
    out["kyoto.walk_s"] = median_seconds("kyoto.demazure_walk")
    out["qpoly.highest_elements"] = total(layers, "qpoly.highest_weight_elements")[1]
    for suite in SUITES:
        out[f"verify.{suite}_checks"] = sum(
            timed[0].outputs[p.label].suites[suite]["checks"]
            for p in w.parts
            if p.span == f"verify.{suite}" and p.label in timed[0].outputs
        )
    out["trace.overhead_s"] = wall(w, [r for r in timed if r.traced]) - wall(
        w, [r for r in timed if not r.traced]
    )
    return out


def measure(w, seed, seconds, trace):
    """One run of workload ``w``; returns the result object printed last."""
    import layers
    import workloads
    from tracing import NullTracer, Tracer

    run = Run()
    setups = [] if trace else setup_samples(w.name)
    null = NullTracer()
    tracer = Tracer(f"{w.name}:seed={seed}", workloads.COUNTERS) if trace else null
    workloads.set_up(w, tracer)
    sample = workloads.sample_queries(*w.query_shape, w.queries, seed)
    k = QUERY_SLICES * len(w.parts)
    slices = [
        [((j, i), sample[j + QUERY_SLICES * i :: k]) for i in range(len(w.parts))]
        for j in range(QUERY_SLICES)
    ]

    # Set-up has filled the caches, so every round is timed.  A traced run
    # alternates traced and untraced rounds, starting with a traced one.
    # Stop when the next round would more likely end past ``seconds``.
    timed = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(timed) % 2 == 0
        chunks = slices[len(timed) % QUERY_SLICES]
        r = run_round(w, chunks, tracer if traced else null, "round", run, traced)
        # Checked between rounds, outside every timed call.  Only the first
        # round keeps its outputs, so memory does not grow with the rounds.
        gate(w, workloads.PINNED[w.name], r, run, workloads.digest)
        if timed:
            r.outputs.clear()
        timed.append(r)
        elapsed = time.perf_counter() - t0
        if len(timed) >= MIN_ROUNDS and elapsed * (1 + 0.5 / len(timed)) >= seconds:
            break

    if trace:
        layers.layer_pass(w, sample, tracer)
        metrics = per_layer_metrics(w, tracer, timed)
        units = PER_LAYER
        tracer.dump(ROOT / ".bench_out" / f"trace_{w.name}_seed{seed}.json")
    else:
        metrics = end_to_end_metrics(w, run, timed, setups)
        units = END_TO_END

    for message in run.failures[:SHOWN_FAILURES]:
        print(f"FAILED {message}", file=sys.stderr)
    failed = len(run.failures)
    print(f"workload {w.name}, seed {seed}: {len(timed)} timed rounds, "
          f"{len(sample)} queries in {QUERY_SLICES} slices, {run.attempted} operations")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(f"  {'fail_ratio':32s} {failed / run.attempted:14.6f} ratio")
    if not trace:
        print(f"  {len(run.charge_ns)} latency samples each; medians (not gated): "
              f"charge {percentiles_us(run.charge_ns)[0]:.3f} us, "
              f"energy_DL {percentiles_us(run.energy_ns)[0]:.3f} us")
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kncrystals" / "__init__.py").is_file():
        print(f"no kncrystals sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(w, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

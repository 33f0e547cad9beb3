"""The benchmark's workloads: fixed exhaustive calls, a seeded query sample,
and the checks that accept their outputs.

Every input is fixed except the query sample, which is drawn uniformly from
the workload's query shape with the run's seed.  A workload names the height
pairs its set-up builds, the public entry calls of one round ("parts"), the
query shape, and the layer probes its traced run times (see ``layers.py``).

Layer functions are imported from their submodules: ``kncrystals.energy`` as
an attribute of the package is the re-exported function ``energy``, not the
module, so ``kncrystals.energy.local_table`` raises ``AttributeError``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from kncrystals.core import (
    CartanType,
    TensorElement,
    column_e,
    column_eps_phi,
    column_f,
    columns,
    crystal_size,
    iter_tensor_elements,
    weight,
)
from kncrystals.energy import energy_DL, local_table
from kncrystals.qpoly import (
    QXPolynomial,
    dominant_contents,
    kostka_foulkes,
    macdonald_p_q0,
    one_dim_sum_X,
    shape_heights,
)
from kncrystals.serialize import VerifyReport
from kncrystals.verify import run_verify

A3, A5, A6 = (CartanType("A", n) for n in (3, 5, 6))
C2, C3, C4, C5 = (CartanType("C", n) for n in (2, 3, 4, 5))


@dataclass(frozen=True)
class Part:
    """One public entry call of a round.

    ``span`` names the public function as ``<module>.<call>``; ``label`` adds
    the inputs and is unique within a workload.  ``check`` returns a failure
    message or None; it sees the output and the outputs of the other parts
    of the same round, keyed by label.
    """

    span: str
    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tables: tuple  # of (cartan type, heights): set-up builds every height pair
    parts: tuple  # of Part
    shape: tuple  # (cartan type, heights) of the main exhaustive shape
    query_shape: tuple  # (cartan type, heights) the query sample is drawn from
    queries: int
    layers: tuple  # names of the layer probes the traced run times


# The package's public caches whose hit and miss counts the traced run reads.
COUNTERS = {
    "local_table": local_table,
    "column_eps_phi": column_eps_phi,
    "column_f": column_f,
    "column_e": column_e,
}


def set_up(w, tracer):
    """Build the columns and the local energy table of every height pair."""
    with tracer.span("setup", count=True):
        pairs = []
        for ct, heights in w.tables:
            hs = sorted(set(heights))
            for h in hs:
                columns(ct, h)
            pairs += [(ct, hl, hr) for hl in hs for hr in hs]
        for ct, hl, hr in dict.fromkeys(pairs):
            with tracer.span("energy.local_table") as s:
                s.n = len(local_table(ct, hl, hr).sigma)


def canonical(output):
    """The text a digest is taken of; timings are left out of reports."""
    if isinstance(output, VerifyReport):
        return json.dumps(
            {
                "cartan": output.cartan,
                "heights": list(output.heights),
                "element_count": output.element_count,
                "max_discrepancy": output.max_discrepancy,
                "suites": output.suites,
            },
            sort_keys=True,
        )
    return str(output)


def digest(output):
    return hashlib.sha256(canonical(output).encode()).hexdigest()[:16]


def sample_queries(ct, heights, count, seed):
    """``count`` elements drawn uniformly, with replacement, from the shape."""
    rng = random.Random(seed)
    pools = [columns(ct, h) for h in heights]
    return [
        TensorElement(ct, tuple(rng.choice(pool) for pool in pools))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# checks from independent routes


def suites_passed(report, _outputs):
    failed = [name for name, s in report.suites.items() if not s["passed"]]
    if failed or report.max_discrepancy:
        return f"suites failed: {failed}, max |D + charge| = {report.max_discrepancy}"
    return None


@functools.cache
def energy_grading(ct, heights):
    """The (-D, weight) generating function of the shape, by the R-matrix route."""
    acc = {}
    for b in iter_tensor_elements(ct, heights):
        key = (-energy_DL(b), weight(b))
        acc[key] = acc.get(key, 0) + 1
    return QXPolynomial.from_dict(acc)


def macdonald_check(ct, mu):
    heights = shape_heights(ct, mu)

    def check(poly, _outputs):
        size = crystal_size(ct, heights)
        if poly.total() != size:
            return f"total {poly.total()} != crystal size {size}"
        if poly != energy_grading(ct, heights):
            return "charge grading differs from the -energy_DL grading"
        return None

    return check


def contains_lambda(lam, n):
    target = tuple(lam) + (0,) * (n - len(lam))

    def check(contents, _outputs):
        return None if target in contents else f"{target} is not a dominant content"

    return check


def xsum_is_inverse_kostka(kostka_label):
    def check(xsum, outputs):
        kostka = outputs.get(kostka_label)
        if kostka is None:
            return "no Kostka-Foulkes output in the same round"
        if xsum != kostka.substitute_inverse():
            return f"X = {xsum} but K(1/q) = {kostka.substitute_inverse()}"
        return None

    return check


def no_check(_output, _outputs):
    return None


# ---------------------------------------------------------------------------
# parts


def verify_part(ct, heights, suite):
    return Part(
        f"verify.{suite}",
        f"verify.{suite} {ct} {heights}",
        lambda: run_verify(ct, heights, suites=(suite,)),
        suites_passed,
    )


def macdonald_part(ct, mu):
    return Part(
        "qpoly.macdonald_p_q0",
        f"qpoly.macdonald_p_q0 {ct} mu={mu}",
        lambda: macdonald_p_q0(ct, mu),
        macdonald_check(ct, mu),
    )


def highest_weight_parts(ct, lam, mu):
    """dominant_contents, kostka_foulkes and one_dim_sum_X on B_mu in type A."""
    heights = shape_heights(ct, mu)
    tag = f"{ct} mu={mu}"
    kostka = f"qpoly.kostka_foulkes {tag} lambda={lam}"
    return (
        Part(
            "qpoly.dominant_contents",
            f"qpoly.dominant_contents {tag}",
            lambda: dominant_contents(ct, heights),
            contains_lambda(lam, ct.n),
        ),
        Part("qpoly.kostka_foulkes", kostka, lambda: kostka_foulkes(ct, lam, mu), no_check),
        Part(
            "qpoly.one_dim_sum_X",
            f"qpoly.one_dim_sum_X {tag} lambda={lam}",
            lambda: one_dim_sum_X(ct, lam, heights),
            xsum_is_inverse_kostka(kostka),
        ),
    )


WALK_SUITES = ("rmatrix", "involution", "oracle", "kyoto")

# Every entry call takes 10-250 ms, so a run of 30 s times each of them 25
# to 50 times.  The box's CPU switches between speed states about 1.6x apart
# every 0.3-10 s.  A call that short mostly runs within one state, so the
# 90th percentile of its times stays in the slow state from run to run.  The
# time of a multi-second call, like any mean or median, follows the share of
# the run that each state held.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan_C",
            why="type C exhaustive scans: charge and energy transport on warm "
            "tables do the timed work; the C5 query tables dominate set-up",
            tables=((C4, (4, 3, 2, 1)), (C3, (3, 2, 1)), (C5, (5, 4, 3, 2, 1))),
            parts=tuple(
                verify_part(ct, hs, "theorem")
                for ct, hs in (
                    (C4, (4, 2)), (C4, (3, 2)), (C4, (2, 2, 1)),
                    (C3, (3, 2, 1)), (C3, (2, 2, 1)), (C3, (2, 1, 1, 1)),
                )
            )
            + (macdonald_part(C3, (3, 2)), macdonald_part(C4, (2, 2, 1))),
            shape=(C4, (2, 2, 1)),
            query_shape=(C5, (5, 4, 3, 2, 1)),
            queries=10_000,
            layers=("enumerate", "highest", "split", "charge", "energy"),
        ),
        Workload(
            name="walks_C",
            why="type C crystal walks: classical operators, Lusztig involution, "
            "grading-oracle BFS, D^R and the commutor; no charge in its wall time",
            tables=((C3, (2, 2)), (C2, (2, 2, 1))),
            parts=tuple(
                verify_part(ct, hs, suite)
                for ct, hs in ((C3, (2, 2)), (C2, (2, 2, 1)))
                for suite in WALK_SUITES
            ),
            shape=(C3, (2, 2)),
            query_shape=(C3, (2, 2)),
            queries=10_000,
            layers=(
                "enumerate", "highest", "split", "charge", "energy",
                "lusztig", "oracle", "commutor", "kyoto",
            ),
        ),
        Workload(
            name="hw_A",
            why="type A highest-weight sums: enumeration and the classical-highest "
            "filter dominate; charge runs unsplit, energy on few elements",
            tables=((A6, (4, 3, 2, 1)), (A5, (3, 2, 1))),
            parts=highest_weight_parts(A6, (3, 2, 1, 1, 1), (4, 2, 1, 1))
            + highest_weight_parts(A5, (3, 2, 1, 1), (4, 2, 1))
            + (macdonald_part(A6, (3, 2, 1)), macdonald_part(A6, (4, 2))),
            shape=(A6, (4, 2, 1, 1)),
            query_shape=(A6, (4, 2, 1, 1)),
            queries=10_000,
            layers=("enumerate", "highest", "charge", "energy", "highest_elements"),
        ),
        # Reduced inputs that reach every part kind and layer probe in about
        # a second; used by the benchmark's self-tests.
        Workload(
            name="smoke",
            why="reduced inputs for the benchmark's self-tests",
            tables=((C2, (2, 1)), (A3, (2, 1))),
            parts=tuple(verify_part(C2, (2, 1), s) for s in ("theorem",) + WALK_SUITES)
            + (macdonald_part(C2, (2, 1)),)
            + highest_weight_parts(A3, (2, 1), (2, 1)),
            shape=(C2, (2, 1)),
            query_shape=(C2, (2, 1)),
            queries=200,
            layers=(
                "enumerate", "highest", "split", "charge", "energy", "lusztig",
                "oracle", "commutor", "kyoto", "highest_elements",
            ),
        ),
    )
}

# Digests of every part's output, taken at the commit that introduced the
# benchmark.  A change that alters an output fails the run.
PINNED = {
    "scan_C": {
        "verify.theorem C4 (4, 2)": "29b2979cc475cebd",
        "verify.theorem C4 (3, 2)": "4515835979050bda",
        "verify.theorem C4 (2, 2, 1)": "9b69c6e2e2414997",
        "verify.theorem C3 (3, 2, 1)": "175f958749bcf5cf",
        "verify.theorem C3 (2, 2, 1)": "e0ed9a35ec9660c8",
        "verify.theorem C3 (2, 1, 1, 1)": "dd02941cfb23de75",
        "qpoly.macdonald_p_q0 C3 mu=(3, 2)": "104d34ae9e314fdf",
        "qpoly.macdonald_p_q0 C4 mu=(2, 2, 1)": "371edc60e539623a",
    },
    "walks_C": {
        "verify.rmatrix C3 (2, 2)": "c424b66ae645a020",
        "verify.involution C3 (2, 2)": "154b359cc26e2e1c",
        "verify.oracle C3 (2, 2)": "8761c1809308a81d",
        "verify.kyoto C3 (2, 2)": "5d42c49bf561a635",
        "verify.rmatrix C2 (2, 2, 1)": "182b4ac973b424d5",
        "verify.involution C2 (2, 2, 1)": "230159b5dbf8d9f6",
        "verify.oracle C2 (2, 2, 1)": "463e31d8256f11b8",
        "verify.kyoto C2 (2, 2, 1)": "f41849f895131299",
    },
    "hw_A": {
        "qpoly.dominant_contents A6 mu=(4, 2, 1, 1)": "79b322e727ed2209",
        "qpoly.kostka_foulkes A6 mu=(4, 2, 1, 1) lambda=(3, 2, 1, 1, 1)": "1c3d762d01f1666d",
        "qpoly.one_dim_sum_X A6 mu=(4, 2, 1, 1) lambda=(3, 2, 1, 1, 1)": "1560ec467da6653d",
        "qpoly.dominant_contents A5 mu=(4, 2, 1)": "f68842fbd99c2621",
        "qpoly.kostka_foulkes A5 mu=(4, 2, 1) lambda=(3, 2, 1, 1)": "1c3d762d01f1666d",
        "qpoly.one_dim_sum_X A5 mu=(4, 2, 1) lambda=(3, 2, 1, 1)": "1560ec467da6653d",
        "qpoly.macdonald_p_q0 A6 mu=(3, 2, 1)": "e3b7f50ec4e9bc47",
        "qpoly.macdonald_p_q0 A6 mu=(4, 2)": "4b75f0f71f0c2037",
    },
    "smoke": {
        "verify.theorem C2 (2, 1)": "5f5c19bc569cfc91",
        "verify.rmatrix C2 (2, 1)": "f7e9d0000de0c794",
        "verify.involution C2 (2, 1)": "73e772c8e92e649d",
        "verify.oracle C2 (2, 1)": "0de851c624ac8c42",
        "verify.kyoto C2 (2, 1)": "5fd90be7ff3b8a87",
        "qpoly.macdonald_p_q0 C2 mu=(2, 1)": "536cd91f78fa806d",
        "qpoly.dominant_contents A3 mu=(2, 1)": "8ba52c0d363fb635",
        "qpoly.kostka_foulkes A3 mu=(2, 1) lambda=(2, 1)": "4fdd21a6a7f74e29",
        "qpoly.one_dim_sum_X A3 mu=(2, 1) lambda=(2, 1)": "4fdd21a6a7f74e29",
    },
}

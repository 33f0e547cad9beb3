"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from . import core
from .bench import run_bench
from .charge import charge as charge_of
from .core import CartanType, check_budget, crystal_graph, iter_tensor_elements
from .energy import energy_DL, energy_DR
from .errors import CrystalError
from .kyoto import ground_states
from .qpoly import kostka_foulkes, macdonald_p_q0, one_dim_sum_X, shape_heights, sort_via_rmatrix
from .serialize import graph_to_dot, parse_filling, serialize_filling
from .verify import SUITE_NAMES, run_verify


def _parse_ints(text):
    tokens = text.split(",")
    if any(not tok.strip() for tok in tokens):
        raise ValueError(f"empty entry in the list {text!r}")
    return tuple(map(int, tokens))


def _cartan(args):
    return CartanType(args.type, args.n)


def _heights(args, ct):
    # argparse requires exactly one of the two; an empty one is refused here
    if args.heights is not None:
        return _parse_ints(args.heights)
    return shape_heights(ct, _parse_ints(args.mu))


def _add_shape_options(sub):
    sub.add_argument("-t", "--type", choices=("A", "C"), required=True)
    sub.add_argument("-n", type=int, required=True)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", help="partition, e.g. 3,3,1 (factors get heights mu')")
    group.add_argument("--heights", help="factor heights left to right, e.g. 3,2,1")


def cmd_charge(args):
    b = parse_filling(args.filling)
    if args.sort:
        b = sort_via_rmatrix(b)
    print(charge_of(b))
    return 0


def cmd_energy(args):
    b = parse_filling(args.filling)
    print(energy_DR(b) if args.right else energy_DL(b))
    return 0


def cmd_enumerate(args):
    ct = _cartan(args)
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be at least 0, got {args.limit}")
    heights = _heights(args, ct)
    # the count in closed form, then the vertices one at a time
    print(check_budget(ct, heights))
    for b in itertools.islice(iter_tensor_elements(ct, heights), args.limit):
        print(serialize_filling(b))
    return 0


def cmd_ground_states(args):
    ct = _cartan(args)
    # ground_states holds its factors, states x factors and columns x n to the budget
    states = ground_states(ct, _heights(args, ct))
    print(len(states))
    for g in states:
        print(f"L{g.weight_index}: {serialize_filling(g.element)}")
    return 0


def cmd_macdonald(args):
    ct = _cartan(args)
    print(macdonald_p_q0(ct, _parse_ints(args.mu)))
    return 0


def cmd_kostka(args):
    ct = _cartan(args)
    print(kostka_foulkes(ct, _parse_ints(args.lam), _parse_ints(args.mu)))
    return 0


def cmd_xsum(args):
    ct = _cartan(args)
    print(one_dim_sum_X(ct, _parse_ints(args.lam), _heights(args, ct)))
    return 0


def cmd_graph(args):
    ct = _cartan(args)
    g = crystal_graph(ct, _heights(args, ct), include_zero=not args.classical)
    out = graph_to_dot(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_verify(args):
    if args.budget is not None and args.budget < 1:
        raise ValueError(f"--budget must be at least 1, got {args.budget}")
    default = core.VERTEX_BUDGET
    try:
        # every gate of this run reads it, lazily built tables included
        if args.budget is not None:
            core.VERTEX_BUDGET = args.budget
        ct = _cartan(args)
        heights = _heights(args, ct)
        mu = _parse_ints(args.mu) if args.mu else None
        suites = None if args.suites is None else tuple(args.suites.split(","))
        report = run_verify(ct, heights, mu=mu, suites=suites)
    finally:
        core.VERTEX_BUDGET = default
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.passed else 1


def cmd_bench(args):
    ct = _cartan(args)
    report = run_bench(
        ct,
        _heights(args, ct),
        trials=args.trials,
        seed=args.seed,
        repeats=args.repeats,
    )
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.agreement else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kncrystals",
        description="Energy and charge on tensor products of column crystals",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("charge", help="charge of a filling")
    p.add_argument("filling")
    p.add_argument("--sort", action="store_true",
                   help="reorder unsorted heights through the R-matrix first")
    p.set_defaults(func=cmd_charge)

    p = subs.add_parser("energy", help="energy D of a filling")
    p.add_argument("filling")
    p.add_argument("--right", action="store_true", help="report D^R instead of D^L")
    p.set_defaults(func=cmd_energy)

    p = subs.add_parser("enumerate", help="list the vertices of a shape")
    _add_shape_options(p)
    p.add_argument("--limit", type=int,
                   help="print at most this many elements (0: only the count)")
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("ground-states", help="enumerate ground states")
    _add_shape_options(p)
    p.set_defaults(func=cmd_ground_states)

    p = subs.add_parser("macdonald", help="Macdonald polynomial at t = 0")
    p.add_argument("-t", "--type", choices=("A", "C"), required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_macdonald)

    p = subs.add_parser("kostka", help="Kostka-Foulkes polynomial (type A)")
    p.add_argument("-t", "--type", choices=("A", "C"), required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_kostka)

    p = subs.add_parser("xsum", help="one-dimensional configuration sum")
    _add_shape_options(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(func=cmd_xsum)

    p = subs.add_parser("graph", help="crystal graph as DOT")
    _add_shape_options(p)
    p.add_argument("--classical", action="store_true", help="omit 0-arrows")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = subs.add_parser("verify", help="exhaustive identity checks on a shape")
    _add_shape_options(p)
    p.add_argument("--suites", help=f"comma list from {','.join(SUITE_NAMES)}")
    p.add_argument("--budget", type=int, help="vertex cap (default 5e6)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("bench", help="time charge against recursive energy")
    _add_shape_options(p)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CrystalError, OSError, ValueError) as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kncrystals
from kncrystals import (
    CartanType,
    columns,
    crystal_graph,
    crystal_size,
    element,
    graph_to_dot,
    ground_states,
    macdonald_p_q0,
    parse_filling,
    run_bench,
    serialize_filling,
    tensor_elements,
)
from kncrystals.cli import build_parser, main
from kncrystals.errors import AdmissibilityViolation, CrystalError, ParseError

A5 = CartanType("A", 6)
C5 = CartanType("C", 5)
C3 = CartanType("C", 3)


def test_parse_paper_fillings():
    b = parse_filling("A6; 3,5,6 | 2,3,4 | 1,2,4 | 2")
    assert b.cartan == A5
    assert b.factors == ((3, 5, 6), (2, 3, 4), (1, 2, 4), (2,))
    c = parse_filling("C5; -5,-3,-2,-1 | 3,-4,-3 | 1,3,-3")
    assert c.factors == ((-5, -3, -2, -1), (3, -4, -3), (1, 3, -3))


def test_serialize_round_trip_fixed():
    b = parse_filling("C5; -5,-3,-2,-1 | 3,-4,-3 | 1,3,-3")
    assert serialize_filling(b) == "C5; -5,-3,-2,-1 | 3,-4,-3 | 1,3,-3"
    assert parse_filling(serialize_filling(b)) == b


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_round_trip_random_elements(data):
    fam = data.draw(st.sampled_from(["A", "C"]))
    n = data.draw(st.integers(min_value=2, max_value=4))
    ct = CartanType(fam, n)
    n_factors = data.draw(st.integers(min_value=1, max_value=3))
    facs = tuple(
        data.draw(
            st.sampled_from(
                columns(ct, data.draw(st.integers(min_value=1, max_value=ct.max_height)))
            )
        )
        for _ in range(n_factors)
    )
    b = element(ct, facs)
    assert parse_filling(serialize_filling(b)) == b


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_filling("A6 3,5,6")
    with pytest.raises(ParseError):
        parse_filling("B3; 1,2")
    with pytest.raises(ParseError):
        parse_filling("A6; 3,x")
    with pytest.raises(ParseError):
        parse_filling("A6; ")
    with pytest.raises(ParseError):
        parse_filling("C5; -1,-2,-3,-5")  # reversed order is rejected
    with pytest.raises(AdmissibilityViolation):
        parse_filling("C2; 1,-1")


def test_dot_output_golden():
    g = crystal_graph(CartanType("A", 3), (1,))
    assert graph_to_dot(g) == (
        "digraph crystal {\n"
        '  "A3; 1";\n'
        '  "A3; 2";\n'
        '  "A3; 3";\n'
        '  "A3; 1" -> "A3; 2" [label="1"];\n'
        '  "A3; 2" -> "A3; 3" [label="2"];\n'
        '  "A3; 3" -> "A3; 1" [label="0", style=dashed, color=red];\n'
        "}\n"
    )


def test_cli_charge_and_energy(capsys):
    assert main(["charge", "A6; 3,5,6 | 2,3,4 | 1,2,4 | 2"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["energy", "A6; 3,5,6 | 2,3,4 | 1,2,4 | 2"]) == 0
    assert capsys.readouterr().out.strip() == "-6"
    assert main(["charge", "C5; -5,-3,-2,-1 | 3,-4,-3 | 1,3,-3"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["energy", "C5; -5,-3,-2,-1 | 3,-4,-3 | 1,3,-3"]) == 0
    assert capsys.readouterr().out.strip() == "-4"


def test_cli_charge_sort_flag(capsys):
    unsorted = "C3; 1 | 2,3"
    assert main(["charge", "--sort", unsorted]) == 0
    out = capsys.readouterr().out.strip()
    b = parse_filling(unsorted)
    from kncrystals import energy_DL

    assert int(out) == -energy_DL(b)


def test_cli_ground_states(capsys):
    assert main(["ground-states", "-t", "C", "-n", "3", "--heights", "1,2,2,3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "3"
    assert sorted(out[1:]) == sorted(
        [
            "L2: C3; 2 | 2,-2 | -3,-2 | 1,2,3",
            "L2: C3; -3 | 2,3 | -3,-2 | 1,2,3",
            "L0: C3; -1 | 2,-2 | -3,-2 | 1,2,3",
        ]
    )


def test_cli_macdonald_golden(capsys):
    assert main(["macdonald", "-t", "A", "-n", "2", "--mu", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1*q^0*x^(0,2) + 1*q^0*x^(1,1) + 1*q^0*x^(2,0) + 1*q^1*x^(1,1)"
    terms = {t.strip() for t in out.split("+")}
    assert terms == {
        "1*q^0*x^(2,0)", "1*q^0*x^(0,2)", "1*q^0*x^(1,1)", "1*q^1*x^(1,1)",
    }


def test_cli_kostka(capsys):
    assert main(["kostka", "-t", "A", "-n", "2", "--lambda", "1,1", "--mu", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1*q^1"


def test_cli_verify_json(capsys):
    rc = main(
        ["verify", "-t", "C", "-n", "2", "--mu", "1,1", "--json", "--suites",
         "theorem,charge,involution"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["max_abs_D_plus_charge"] == 0
    assert data["schema_version"] == 1
    assert data["element_count"] == 5  # mu = (1,1) is a single height-2 column
    assert set(data["suites"]) == {"theorem", "charge", "involution"}


def test_cli_verify_mu_and_jobs(capsys):
    argv = ["verify", "-t", "A", "-n", "3", "--mu", "2,1", "--suites", "theorem"]
    assert main(argv) == 0
    assert "max |D + charge|: 0" in capsys.readouterr().out
    # verify runs in one process: --jobs is not an option
    with pytest.raises(SystemExit) as info:
        main(argv + ["--jobs", "2"])
    assert info.value.code == 2


def _readme_usage():
    """The ``kncrystals`` lines of README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("kncrystals ")]


@pytest.mark.parametrize("line", _readme_usage(), ids=lambda line: line.split()[1])
def test_readme_usage_runs(capsys, line):
    command, _, comment = line.partition("#")
    groups = re.findall(r"\[([^]]*)\]", command)
    argv = shlex.split(re.sub(r"\[[^]]*\]", "", command))[1:]
    assert main(argv) == 0, line
    shown = re.search(r"->\s*(\S+)", comment)
    if shown:
        assert capsys.readouterr().out.strip() == shown.group(1)
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = subs.choices[argv[0]]._option_string_actions
    for flag in re.findall(r"--[\w-]+", " ".join(groups)):
        assert flag in options, (line, flag)


def test_cli_graph_classical(capsys):
    rc = main(["graph", "-t", "C", "-n", "2", "--heights", "1", "--classical"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "style=dashed" not in out
    assert out.count("->") == 3


def test_cli_graph_to_file(tmp_path, capsys):
    target = tmp_path / "g.dot"
    rc = main(["graph", "-t", "A", "-n", "3", "--heights", "1", "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("digraph crystal {")


def test_cli_graph_to_a_directory_is_a_usage_error(tmp_path, capsys):
    rc = main(["graph", "-t", "A", "-n", "3", "--heights", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: IsADirectoryError"), err


_EMPTY_SHAPE_COMMANDS = [
    ["enumerate"],
    ["ground-states"],
    ["macdonald"],
    ["kostka", "--lambda", "1"],
    ["xsum", "--lambda", "1"],
    ["graph"],
    ["verify"],
    ["bench", "--trials", "5", "--repeats", "1"],
]


@pytest.mark.parametrize("command", _EMPTY_SHAPE_COMMANDS, ids=lambda c: c[0])
def test_cli_refuses_an_empty_shape(command, capsys):
    rc = main(command[:1] + ["-t", "A", "-n", "3", "--mu", ","] + command[1:])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.splitlines() == ["error: ValueError: empty entry in the list ','"]


@pytest.mark.parametrize(
    "route",
    [crystal_size, tensor_elements, crystal_graph, ground_states, run_bench,
     macdonald_p_q0],
    ids=lambda f: f.__name__,
)
def test_a_shape_with_no_factors_is_refused(route):
    with pytest.raises(ValueError, match="at least one factor"):
        route(C3, ())


def test_cli_verify_budget(capsys):
    rc = main(["verify", "-t", "C", "-n", "3", "--heights", "3,3", "--budget", "10",
               "--suites", "theorem"])
    assert rc == 2
    assert "budget" in capsys.readouterr().err


def test_cli_error_exit_codes(capsys):
    assert main(["charge", "C2; 1,-1"]) == 2
    capsys.readouterr()
    assert main(["charge", "not a filling"]) == 2
    capsys.readouterr()
    assert main(["macdonald", "-t", "C", "-n", "2", "--mu", "1,1,1"]) == 2
    capsys.readouterr()
    assert main(["macdonald", "-t", "A", "-n", "3", "--mu", "2,,1"]) == 2
    assert "empty entry" in capsys.readouterr().err
    assert main(["ground-states", "-t", "A", "-n", "3", "--heights", ""]) == 2
    assert "empty entry" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_cli_enumerate(capsys):
    rc = main(["enumerate", "-t", "C", "-n", "2", "--mu", "1,1"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "5"
    assert out[1] == "C2; 1,2"
    assert len(out) == 6


def test_cli_xsum(capsys):
    rc = main(["xsum", "-t", "A", "-n", "2", "--mu", "2", "--lambda", "1,1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1*q^-1"


def test_cli_bench_smoke(capsys):
    rc = main(
        ["bench", "-t", "C", "-n", "2", "--mu", "2,1", "--trials", "50",
         "--repeats", "1", "--json"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agreement"] is True
    assert data["charge_ns_per_element"] > 0
    assert data["charge_cold_ns_per_element"] > 0
    assert data["energy_warm_ns_per_element"] > 0
    assert data["energy_over_charge_ratio"] > 0
    assert data["schema_version"] == 3


def _python(*args, timeout=30):
    """Run a fresh interpreter on the package under test; a hang fails after ``timeout`` s."""
    src = str(Path(kncrystals.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_rejects_huge_shape_before_building_columns():
    done = _python("-m", "kncrystals.cli", "enumerate", "-t", "A", "-n", "30",
                   "--heights", "15")
    assert done.returncode == 2
    assert "ShapeTooLarge" in done.stderr


@pytest.mark.parametrize("mu", ["10000000", "1000000000"])
def test_cli_macdonald_refuses_a_huge_first_part_at_once(mu):
    # B_mu has at least 2^mu[0] vertices; mu' must not be built first
    start = time.perf_counter()
    done = _python("-m", "kncrystals.cli", "macdonald", "-t", "A", "-n", "3", "--mu", mu)
    assert time.perf_counter() - start < 1
    assert done.returncode == 2
    assert "ShapeTooLarge" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        # budget-checked before mu' (10^7 parts) is built
        ["enumerate", "-t", "A", "-n", "3", "--mu", "10000000", "--limit", "0"],
        ["xsum", "-t", "A", "-n", "3", "--mu", "10000000", "--lambda", "1"],
        # within the vertex budget, but an n-entry check on every vertex
        ["kostka", "-t", "A", "-n", "3555922", "--mu", "1", "--lambda", "1,0"],
        ["graph", "-t", "A", "-n", "3000000", "--heights", "1", "--classical"],
        ["verify", "-t", "A", "-n", "3000000", "--heights", "1", "--suites", "charge"],
        ["macdonald", "-t", "A", "-n", "4000", "--mu", "1"],
        # a local energy table: pairs x n
        ["energy", "A400; 1 | 2"],
        # an eps weight for every column of a height: columns x n
        ["ground-states", "-t", "A", "-n", "3000000", "--heights", "1"],
    ],
)
def test_cli_refuses_over_budget_work_at_once(argv):
    start = time.perf_counter()
    done = _python("-m", "kncrystals.cli", *argv)
    assert time.perf_counter() - start < 1
    assert done.returncode == 2
    assert "ShapeTooLarge" in done.stderr


def test_cli_rank_work_within_the_budget():
    # 2,000 vertices x rank 2,000 fit the budget: one monomial per letter
    done = _python("-m", "kncrystals.cli", "macdonald", "-t", "A", "-n", "2000", "--mu", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("1*q^0*x^(") == 2000
    # and so do 100 x 100 pairs x rank 100 of a local energy table
    done = _python("-m", "kncrystals.cli", "energy", "A100; 1 | 2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def test_cli_graph_within_the_rank_budget():
    done = _python("-m", "kncrystals.cli", "graph", "-t", "A", "-n", "600",
                   "--heights", "1", "--classical")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("->") == 599


def test_cli_ground_states_of_many_factors():
    # chains share their prefixes, so the work is linear in the factor count
    done = _python("-m", "kncrystals.cli", "ground-states", "-t", "A", "-n", "2",
                   "--mu", "200000", timeout=20)
    assert done.returncode == 0, done.stderr
    count, state = done.stdout.splitlines()
    assert count == "1"
    assert state.count("|") == 200000 - 1


def test_cli_verify_under_optimize_flag():
    # invariants raise CrystalError subclasses, so they survive python -O
    done = _python("-O", "-m", "kncrystals.cli", "verify", "-t", "C", "-n", "2",
                   "--heights", "2,1", "--json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"] is True


def test_cli_enumerate_limit(capsys):
    args = ["enumerate", "-t", "C", "-n", "2", "--heights", "1"]
    assert main(args + ["--limit", "0"]) == 0
    assert capsys.readouterr().out == "4\n"
    assert main(args + ["--limit", "2"]) == 0
    assert capsys.readouterr().out == "4\nC2; 1\nC2; 2\n"
    assert main(args + ["--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--limit" in captured.err


_RANK_PROBE = """
from kncrystals import (CartanType, charge, columns, energy_DL, energy_DR, energy_report,
                        ground_states, local_table, parse_filling)
from kncrystals.core import _column_index
from kncrystals.errors import ShapeTooLarge
big = 10**12
for text in ("A%d; 2,3 | 1" % big, "C%d; 2,3,-3 | 1,-2" % big, "C%d; 1" % big):
    b = parse_filling(text)
    if len(b.factors) == 1:
        r = energy_report(b)
        print(charge(b), energy_DL(b), energy_DR(b), r.d_left, r.d_right,
              len(r.left_terms) + len(r.right_terms))
    else:
        print(charge(b), "-")
# no energy above built a table or a column index
print(local_table.cache_info().currsize, _column_index.cache_info().currsize)
for ct in (CartanType("A", big), CartanType("C", big)):
    for build in (lambda: columns(ct, 1), lambda: local_table(ct, 2, 1),
                  lambda: ground_states(ct, (1,))):
        try:
            build()
        except ShapeTooLarge:
            print("ShapeTooLarge")
"""


def test_work_before_the_budget_check_does_not_grow_with_the_rank():
    done = _python("-c", _RANK_PROBE)
    assert done.returncode == 0, done.stderr
    small = [
        parse_filling(text)
        for text in ("A4; 2,3 | 1", "C3; 2,3,-3 | 1,-2", "C3; 1")
    ]
    want = [
        f"{kncrystals.charge(b)} " + ("0 0 0 0 0" if len(b.factors) == 1 else "-")
        for b in small
    ]
    assert done.stdout.splitlines() == want + ["0 0"] + ["ShapeTooLarge"] * 6


_CLI_BATCH = """
import contextlib, io, json, sys
from kncrystals.cli import main
codes = []
for argv in json.loads(sys.stdin.read()):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            codes.append(main(argv))
        except SystemExit as ex:
            codes.append(ex.code)
print(json.dumps(codes))
"""

# small ranks keep every shape within about 3,000 vertices, so each
# command finishes in well under a second
_SMALL_RANKS = st.integers(min_value=-1, max_value=3)
# above 10**7 even one column of height 1 passes the default vertex budget
# of 5,000,000, so every shape must be refused before any work
_HUGE_RANKS = st.integers(min_value=10**7, max_value=10**12)
_SHAPE_TEXT = st.lists(st.integers(min_value=-1, max_value=3), min_size=0, max_size=3).map(
    lambda parts: ",".join(map(str, parts))
)


def _letters(n):
    near_top = [n - 1, n] if n > 1 else []
    return st.sampled_from([1, 2, 3, 0] + near_top + [-x for x in [1, 2, 3] + near_top])


@st.composite
def _filling_text(draw, n):
    family = draw(st.sampled_from(["A", "C", "B"]))
    cols = draw(st.lists(st.lists(_letters(n), max_size=3), min_size=1, max_size=3))
    body = " | ".join(",".join(map(str, col)) for col in cols)
    return f"{family}{n}; {body}"


@st.composite
def _argv(draw, ranks):
    n = draw(ranks)
    family = draw(st.sampled_from(["A", "C"]))
    shape = ["-t", family, "-n", str(n)]
    kind = draw(st.sampled_from(["charge", "energy", "enumerate", "ground-states",
                                 "macdonald", "kostka", "xsum", "graph", "verify",
                                 "bench", "junk"]))
    mu = draw(_SHAPE_TEXT)
    if kind in ("charge", "energy"):
        flag = draw(st.sampled_from([[], ["--sort"] if kind == "charge" else ["--right"]]))
        return [kind, draw(_filling_text(n))] + flag
    if kind == "enumerate":
        return [kind] + shape + ["--mu", mu, "--limit", str(draw(st.integers(-2, 3)))]
    if kind in ("ground-states", "graph"):
        return [kind] + shape + ["--heights", mu]
    if kind == "macdonald":
        return [kind] + shape + ["--mu", mu]
    if kind in ("kostka", "xsum"):
        return [kind] + shape + ["--mu", mu, "--lambda", draw(_SHAPE_TEXT)]
    if kind == "verify":
        return [kind] + shape + ["--heights", mu, "--suites", "theorem,charge"]
    if kind == "bench":
        return [kind] + shape + ["--heights", mu, "--trials", "5", "--repeats", "1"]
    return draw(st.lists(st.sampled_from(["-n", "-t", "C", "5", "--mu", "x", "1,,2",
                                          "charge", "--limit"]), max_size=5))


@settings(max_examples=6, deadline=None)
@given(batch=st.lists(st.one_of(_argv(_SMALL_RANKS), _argv(_HUGE_RANKS)),
                      min_size=1, max_size=15))
def test_cli_fuzz_exits_0_or_2(batch):
    # one fresh interpreter per batch, so a hang fails after the timeout
    done = subprocess.run(
        [sys.executable, "-c", _CLI_BATCH],
        input=json.dumps(batch),
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(kncrystals.__file__).resolve().parents[1])},
    )
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout)
    assert all(code in (0, 2) for code in codes), list(zip(batch, codes))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_SMALL_RANKS.flatmap(_filling_text), st.text(max_size=20)))
def test_parse_filling_fuzz(text):
    try:
        b = parse_filling(text)
    except (CrystalError, ValueError):
        return
    assert parse_filling(serialize_filling(b)) == b

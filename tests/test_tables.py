"""The local energy tables: pinned contents, retained memory, and the checks
of the coded builds."""

import dataclasses
import hashlib
import itertools
import random
from array import array
from importlib import import_module

import pytest
from util import clear_energy_rows, energy_rows, fresh_python, theorem_shapes

from kncrystals import (
    CartanType,
    TensorElement,
    charge,
    columns,
    combinatorial_r,
    energy_DL,
    energy_DR,
    energy_report,
    iter_tensor_elements,
    local_energy,
    local_table,
    shape_heights,
    tau,
)
from kncrystals.errors import NoMatchingComponent
from kncrystals.verify import run_verify

energy_module = import_module("kncrystals.energy")

C3 = CartanType("C", 3)

# sha256 (first 16 hex digits) of repr([(k, table.sigma[k]) for k in keys])
# and of the same list for table.h, where keys, the product of the two
# column tuples, are in pair-code order; taken from the tables of the
# visit-order builders that the component walk replaced; the C5 tables with
# left height >= right height, from the e_0 component walk that the closed
# form for H replaced
PINNED = {
    # C5
    ("C", 5, 5, 5): ("6f030c1a256d3ae8", "411a7b15eef1a8d5"),
    ("C", 5, 5, 4): ("74661d901299a463", "b0d6fa8db16d179e"),
    ("C", 5, 5, 3): ("a591b98666856805", "25fe68d6e37ba7cc"),
    ("C", 5, 5, 2): ("6123d3738e10b8c3", "312b270cc55505f9"),
    ("C", 5, 5, 1): ("f0a596969daf8b41", "3f37f321442cafa1"),
    ("C", 5, 4, 4): ("6652d0b333bd8dd9", "cd631193ebc12d07"),
    ("C", 5, 4, 3): ("c31e5c3349d180cd", "1780b98662ca0623"),
    ("C", 5, 4, 2): ("d3ebbbfb7158bc6d", "790b53cbde60e57f"),
    ("C", 5, 4, 1): ("1dbb2295648d4e7d", "ca34c00e70b054b7"),
    ("C", 5, 3, 3): ("a05951fb1bbc546c", "e343d84aa4e44c1e"),
    ("C", 5, 3, 2): ("111f88b974d99639", "7fdbcc731fa5f70f"),
    ("C", 5, 3, 1): ("533520366e0fec98", "fb5b6ea2bf90384d"),
    ("C", 5, 2, 2): ("bc4a5b6d1dd730c8", "2f875faa2ee062f4"),
    ("C", 5, 2, 1): ("1fde4acc13625343", "f8b4504945370b5f"),
    ("C", 5, 1, 1): ("3f742bd0965694d8", "9e5b2cda81f80867"),
    # C4
    ("C", 4, 4, 4): ("9d94e0906d12e668", "cea8771754c07085"),
    ("C", 4, 4, 3): ("5a03a2ac5ef80de0", "183458c90e83a841"),
    ("C", 4, 4, 2): ("a1c6ec0e9c6843a4", "7118e3d415b1095e"),
    ("C", 4, 4, 1): ("e08f6f7365c07a65", "a60d80f52c79ea81"),
    ("C", 4, 3, 4): ("0465f4752dad9faf", "93f6218cad98e4fa"),
    ("C", 4, 3, 3): ("5900af11f23a42e9", "3fed360bc83550b3"),
    ("C", 4, 3, 2): ("21378cbb9c23316a", "ef39fa01634602a7"),
    ("C", 4, 3, 1): ("b541eee78529639a", "bc75bf0d884e02fb"),
    ("C", 4, 2, 4): ("52bb8f7893bc2be6", "af7195fba04827ca"),
    ("C", 4, 2, 3): ("f31d66e9446ee2b2", "75fa3f23fe5755a1"),
    ("C", 4, 2, 2): ("f5b6013fb1e5ceef", "5184df3199a53baa"),
    ("C", 4, 2, 1): ("ea2b83b9bafa441b", "74ae80c9f26243e7"),
    ("C", 4, 1, 4): ("c01be9698491f176", "72e2a854f93caa9a"),
    ("C", 4, 1, 3): ("e29a2039a99cba34", "b9b8c008be5f91ee"),
    ("C", 4, 1, 2): ("ac8cba81e76f7c75", "b7d0386b75fcc206"),
    ("C", 4, 1, 1): ("da8364d2079e52ac", "726b28ec559b956c"),
    # C3
    ("C", 3, 3, 3): ("13235784c381563b", "a51293c08aa7ea70"),
    ("C", 3, 3, 2): ("4a7f50f4637b34f7", "1823f42f6bc3dff7"),
    ("C", 3, 3, 1): ("8f2f9defae9c12eb", "61d3216754ed3d12"),
    ("C", 3, 2, 3): ("5aa5616328fc9a6f", "01db20aacad5911f"),
    ("C", 3, 2, 2): ("300bc41db9167bf5", "cd69735ad8eec9d1"),
    ("C", 3, 2, 1): ("bbd674678a4002c9", "ac2c1bacc222f6b3"),
    ("C", 3, 1, 3): ("05d2e091f14eaaa0", "a2936cd8717f40f0"),
    ("C", 3, 1, 2): ("4558f98d8bcb3549", "0a1140cb31b26347"),
    ("C", 3, 1, 1): ("1c332e7f5fe0ee77", "9ff35d1e95866b06"),
    # A5
    ("A", 5, 3, 3): ("2ecb86f673a81f1b", "95f4c29893fe8510"),
    ("A", 5, 3, 2): ("3d47d0134956f303", "39748797755e8f3a"),
    ("A", 5, 3, 1): ("b40c5b6fc118bd7a", "88236813d58aa066"),
    ("A", 5, 2, 3): ("124eebe64c026dfd", "42269512cbaf813a"),
    ("A", 5, 2, 2): ("45703465859b0634", "e61a347c966471ca"),
    ("A", 5, 2, 1): ("c6210dcfdecc9403", "b8d14512c372f45c"),
    ("A", 5, 1, 3): ("881ed5682140e161", "3362902bfe414608"),
    ("A", 5, 1, 2): ("05d74f90373950aa", "4a372ec9821909f6"),
    ("A", 5, 1, 1): ("833c6e23c5aeedfc", "7ca4779f145c66bb"),
}


def _digest(items):
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


def test_tables_match_the_pinned_digests():
    for (family, n, hl, hr), (want_sigma, want_h) in PINNED.items():
        ct = CartanType(family, n)
        table = local_table(ct, hl, hr)
        keys = tuple(itertools.product(columns(ct, hl), columns(ct, hr)))
        assert _digest((k, table.sigma[k]) for k in keys) == want_sigma, (family, n, hl, hr)
        assert _digest((k, table.h[k]) for k in keys) == want_h, (family, n, hl, hr)
        # the views iterate in pair-code order
        assert tuple(table.sigma) == tuple(table.h) == keys


def _corrupt(monkeypatch, height, index, slots, change):
    """Serve a copy of the coded maps with ``change`` applied to the lists of ``slots``."""
    real = energy_module._column_codes

    def corrupted(ct, h, i):
        maps = [list(m) for m in real(ct, h, i)]
        if (h, i) == (height, index):
            for slot in slots:
                change(maps[slot])
        return tuple(maps)

    monkeypatch.setattr(energy_module, "_column_codes", corrupted)


def _undefine_first(codes):
    codes[next(c for c, t in enumerate(codes) if t >= 0)] = -1


def _redirect_first(codes):
    first = next(c for c, t in enumerate(codes) if t >= 0)
    codes[first] = (codes[first] + 1) % len(codes)


SMALL_PAIRS = ((2, 1), (1, 2), (2, 2), (1, 1))
CORRUPTIONS = [
    # (height, index, slots, change, pairs built, match)
    (1, 1, (2,), _undefine_first, SMALL_PAIRS, None),  # a classical f undefined
    (2, 2, (2,), _redirect_first, SMALL_PAIRS, None),  # a classical f pointing elsewhere
    # a classical f into another component, caught at the edge
    (3, 2, (2,), _redirect_first, ((3, 3),), "leaves the component walk"),
]


@pytest.mark.parametrize(
    "height, index, slots, change, pairs, match",
    CORRUPTIONS,
    ids=[f"{h}-{i}-{'-'.join(map(str, slots))}-{change.__name__}"
         for h, i, slots, change, *_ in CORRUPTIONS],
)
def test_corrupted_maps_fail_the_build(monkeypatch, height, index, slots, change, pairs, match):
    _corrupt(monkeypatch, height, index, slots, change)
    with pytest.raises(NoMatchingComponent, match=match):
        for hl, hr in pairs:
            energy_module._build_sigma(C3, hl, hr)


def test_uncorrupted_copies_build_the_same_tables(monkeypatch):
    # the control: served through the same wrapper, but with no list changed
    _corrupt(monkeypatch, None, None, (), None)
    for hl, hr in ((2, 1), (3, 3)):
        table = local_table(C3, hl, hr)
        highest, label, image = energy_module._build_sigma(C3, hl, hr)
        keys = tuple(itertools.product(columns(C3, hl), columns(C3, hr)))
        swapped = tuple(itertools.product(columns(C3, hr), columns(C3, hl)))
        assert [(k, swapped[image[p]]) for p, k in enumerate(keys)] == list(table.sigma.items())
        # each component's highest pair is labelled as its own, every pair
        # has a label, and H is constant on each component
        n_right = len(columns(C3, hr))
        assert [label[x * n_right] for x in highest] == list(range(len(highest)))
        assert -1 not in label
        assert len(set(zip(label, table.energies))) == len(highest)


def _walked(ct, hl, hr):
    """The arrays of (hl, hr) as the component walk builds them, with H in
    closed form on each component's highest pair x (x) generator: minus the
    letters of x outside 1..hl, which holds in either order of the heights."""
    highest, label, image = energy_module._build_sigma(ct, hl, hr)
    cols = columns(ct, hl)
    h_of = [-sum(v < 0 or v > hl for v in cols[x]) for x in highest]
    n_left = len(cols)
    return [c // n_left for c in image], [c % n_left for c in image], [h_of[c] for c in label]


def _rmatrix_passes(ct, heights):
    return run_verify(ct, heights, suites=["rmatrix"]).suites["rmatrix"]["passed"]


@pytest.mark.parametrize(
    "ct, hl, hr", [(CartanType("C", 2), 2, 1), (C3, 1, 2)], ids=["walked", "mirrored"]
)
def test_one_component_off_by_one_fails_the_rmatrix_suite(ct, hl, hr):
    assert _rmatrix_passes(ct, (hl, hr))
    highest, label, _ = energy_module._build_sigma(ct, hl, hr)
    table, swapped = local_table(ct, hl, hr), local_table(ct, hr, hl)
    n_left = len(columns(ct, hl))
    try:
        # the last component walked, whose pairs are not all unbarred, raised
        # in the swapped table too, on sigma's image: H stays R-invariant and
        # agrees with type A, so only the LL/RR rule along f_0 can catch it
        for p, c in enumerate(label):
            if c == len(highest) - 1:
                table.energies[p] += 1
                swapped.energies[table.image_left[p] * n_left + table.image_right[p]] += 1
        assert not _rmatrix_passes(ct, (hl, hr))
    finally:
        # a mirror keeps the H it copied, and the rows hold the arrays
        local_table.cache_clear()
        clear_energy_rows()


MIRRORED = [
    (CartanType(family, n), hl, hr)
    for family, ns in (("A", (3, 4, 5)), ("C", (2, 3, 4)))
    for n in ns
    for hl, hr in itertools.combinations(range(1, CartanType(family, n).max_height + 1), 2)
] + [(CartanType("C", 5), 4, 5)]


def test_mirrored_tables_equal_the_walk():
    for ct, hl, hr in MIRRORED:
        table = local_table(ct, hl, hr)
        arrays = (table.image_left, table.image_right, table.energies)
        assert [list(a) for a in arrays] == list(_walked(ct, hl, hr)), (ct, hl, hr)
        assert [a.typecode for a in arrays] == ["B", "B", "h"], (ct, hl, hr)


def test_either_order_first_builds_the_same_tables():
    def arrays(hl, hr):
        table = local_table(C3, hl, hr)
        return table.image_left, table.image_right, table.energies

    built = []
    try:
        for pairs in (((3, 2), (2, 3)), ((2, 3), (3, 2))):
            local_table.cache_clear()
            built.append({pair: arrays(*pair) for pair in pairs})
    finally:
        clear_energy_rows()
    assert built[0] == built[1]


def test_a_repeated_image_code_fails_the_mirror(monkeypatch):
    source = local_table(C3, 3, 2)
    image_left, image_right = array("B", source.image_left), array("B", source.image_right)
    # pair 1 gets the image of pair 0, so some pair of (2, 3) maps to no pair
    image_left[1], image_right[1] = image_left[0], image_right[0]
    patched = dataclasses.replace(source, image_left=image_left, image_right=image_right)
    monkeypatch.setattr(energy_module, "local_table", lambda ct, hl, hr: patched)
    with pytest.raises(NoMatchingComponent, match="not a bijection"):
        local_table.__wrapped__(C3, 2, 3)


def _reference_terms(b):
    """The D^L and D^R pair terms, transported through the public pair maps.

    Keys follow :class:`EnergyReport`: factors are numbered right to left.
    """
    ct, fac = b.cartan, b.factors
    n = len(fac)
    left, right = {}, {}
    for q0 in range(1, n):
        moving = fac[q0]
        for q in range(q0 - 1, -1, -1):
            left[(n - q, n - q0)] = local_energy(ct, fac[q], moving)
            moving = combinatorial_r(ct, fac[q], moving)[0]
    for q0 in range(n - 1):
        moving = fac[q0]
        for q in range(q0 + 1, n):
            right[(n - q0, n - q)] = local_energy(ct, moving, fac[q])
            moving = combinatorial_r(ct, moving, fac[q])[1]
    return left, right


def _long_unsorted(ct, count, seed):
    rng = random.Random(seed)
    heights = [rng.randint(1, ct.max_height) for _ in range(count)]
    return TensorElement(ct, tuple(rng.choice(columns(ct, h)) for h in heights))


def test_coded_transport_matches_the_pair_maps():
    # tau reverses the factors and a rotation moves the tallest one to the
    # end, so unsorted shapes are checked as well, and so are two of 65
    # factors, past the length of the per-shape plans the rows replaced
    elements = [
        elem
        for ct, mu in theorem_shapes()
        for b in iter_tensor_elements(ct, shape_heights(ct, mu))
        for elem in (b, tau(b), TensorElement(ct, b.factors[1:] + b.factors[:1]))
    ]
    elements += [_long_unsorted(CartanType("A", 3), 65, 1), _long_unsorted(C3, 65, 2)]
    for elem in elements:
        left, right = _reference_terms(elem)
        report = energy_report(elem)
        assert report.left_terms == left, elem
        assert report.right_terms == right, elem
        assert energy_DL(elem) == report.d_left == sum(left.values()), elem
        assert energy_DR(elem) == report.d_right == sum(right.values()), elem


def test_a_dl_call_links_no_dr_row():
    A3 = CartanType("A", 3)
    rng = random.Random(65)
    b = TensorElement(A3, tuple(rng.choice(columns(A3, 1)) for _ in range(65)))
    clear_energy_rows()
    assert energy_DL(b) == -charge(b)
    assert energy_rows() == [(A3, -1)]
    report = energy_report(b)
    assert energy_rows() == [(A3, -1), (A3, 1)]
    assert report.d_left == energy_DL(b) and report.d_right == energy_DR(b)


def test_transport_reads_no_table_after_its_rows_fill(monkeypatch):
    heights = (2, 1, 3, 1)  # unsorted, with a repeated height
    b = TensorElement(C3, tuple(columns(C3, h)[3 * h] for h in heights))
    want = energy_DL(b), energy_DR(b), energy_report(b)

    def fail(*args):
        raise AssertionError("local_table called from a transport")

    monkeypatch.setattr(energy_module, "local_table", fail)
    assert (energy_DL(b), energy_DR(b), energy_report(b)) == want


@pytest.mark.parametrize("energy", [energy_DL, energy_DR, energy_report])
def test_a_factor_off_the_columns_fills_no_row(monkeypatch, energy):
    calls = []

    def counted(*args):
        calls.append(args)
        return local_table(*args)

    clear_energy_rows()
    monkeypatch.setattr(energy_module, "local_table", counted)
    good = (columns(C3, 2)[5], columns(C3, 1)[1], columns(C3, 1)[4])
    want = energy(TensorElement(C3, good))
    filled = len(calls)
    assert filled > 0
    # (9,) has height 1 but is no column of C3; as the first factor it is
    # met by the D^L chains, as the second it moves in one
    for bad in ((9,),) + good[1:], good[:1] + ((9,),) + good[2:]:
        for _ in range(3):
            with pytest.raises(KeyError):
                energy(TensorElement(C3, bad))
    assert len(calls) == filled
    assert energy(TensorElement(C3, good)) == want
    assert len(calls) == filled


@pytest.mark.parametrize(
    "key",
    [
        ((1, 2), (1, 2, 3)),  # the right column has the wrong height
        ((1, 3), (9,)),  # not a column of C3
        ((1, 3), (1,), (2,)),  # three columns
        ((1, 3),),
        None,
        "ab",
        ([1, 3], (1,)),  # unhashable
        3,
    ],
)
def test_views_raise_key_error_off_the_columns(key):
    table = local_table(C3, 2, 1)
    for view in (table.sigma, table.h):
        with pytest.raises(KeyError):
            view[key]
        assert key not in view
        assert view.get(key) is None
    assert table.sigma[((1, 3), (2,))] in table.sigma.values()


_TRANSPORT_BUILDS_NO_PAIR_KEYS = """
import random
from kncrystals import CartanType, TensorElement, columns, energy_DL, local_table
ct, heights = CartanType("C", 4), (4, 3, 2, 1)
for hl in heights:
    for hr in heights:
        len(local_table(ct, hl, hr).sigma)
rng = random.Random(7)
pools = [columns(ct, h) for h in heights]
for _ in range(1000):
    energy_DL(TensorElement(ct, tuple(rng.choice(p) for p in pools)))
table = local_table(ct, 4, 3)
print(len(table.sigma) == len(table.h) == len(columns(ct, 4)) * len(columns(ct, 3)))
"""


def test_set_up_and_transport_build_no_pair_keys():
    assert fresh_python(_TRANSPORT_BUILDS_NO_PAIR_KEYS) == ["True"]


_RETAINED_BY_ONE_TABLE = """
import gc, tracemalloc
from kncrystals import CartanType, local_table
C5 = CartanType("C", 5)
local_table(C5, 4, 5)  # the swap builds every column map that (5, 4) reads
tracemalloc.start()
table = local_table(C5, 5, 4)
gc.collect()
print(len(table.sigma), tracemalloc.get_traced_memory()[0])
"""


def test_a_table_retains_its_arrays_only():
    # 132 x 165 pairs: four arrays of 14 bytes a pair together, about 300 KB;
    # tuple-keyed dicts of the same table retained about 1.2 MB
    entries, retained = map(int, fresh_python(_RETAINED_BY_ONE_TABLE))
    assert entries == 132 * 165
    assert retained < 512 * 1024


_RETAINED_BY_ONE_SIGMA_READ = """
import gc, tracemalloc
from kncrystals import CartanType, columns, combinatorial_r, local_table
C5 = CartanType("C", 5)
local_table(C5, 5, 4), local_table(C5, 4, 5)
left, right = columns(C5, 5)[37], columns(C5, 4)[101]
tracemalloc.start()
image = combinatorial_r(C5, left, right)
gc.collect()
print(len(image), tracemalloc.get_traced_memory()[0])
"""


def test_a_sigma_read_builds_no_pair_keys():
    # the image code is decoded into two columns; the swapped table's
    # 165 x 132 pair keys retained about 1.4 MB
    pair, retained = map(int, fresh_python(_RETAINED_BY_ONE_SIGMA_READ))
    assert pair == 2
    assert retained < 64 * 1024


_RETAINED_BY_ITERATED_VIEWS = """
import gc, tracemalloc
from kncrystals import CartanType, local_table
C5 = CartanType("C", 5)
tables = [local_table(C5, hl, hr) for hl in (5, 4) for hr in (5, 4)]
tracemalloc.start()
items = 0
for table in tables:
    items += sum(1 for _ in table.sigma.items()) + sum(1 for _ in table.h.items())
gc.collect()
print(items, tracemalloc.get_traced_memory()[0])
"""


def test_iterated_views_retain_nothing():
    # each pass iterates the product of the two column tuples; a cache of
    # the pair keys of these four tables retained about 5.6 MB
    items, retained = map(int, fresh_python(_RETAINED_BY_ITERATED_VIEWS))
    assert items == 2 * (165 + 132) ** 2
    assert retained < 64 * 1024


_RETAINED_BY_A_LONG_TRANSPORT = """
import gc, random, tracemalloc
from kncrystals import CartanType, TensorElement, charge, columns, energy_DL, energy_DR
A3 = CartanType("A", 3)
rng = random.Random(3)
b = TensorElement(A3, tuple(rng.choice(columns(A3, 1)) for _ in range(300)))
tracemalloc.start()
d_left, d_right = energy_DL(b), energy_DR(b)
gc.collect()
print(d_left + charge(b), d_right, tracemalloc.get_traced_memory()[0])
"""


def test_a_long_transport_retains_its_rows_only():
    # the rows of A3 are per type; the per-shape plan they replaced held
    # 2 x 300 x 299 / 2 step references, about 0.7 MB, and a plan of
    # per-step tuples before it 8.0 MB
    theorem, d_right, retained = map(int, fresh_python(_RETAINED_BY_A_LONG_TRANSPORT))
    assert theorem == 0 and d_right <= 0
    assert retained < 1024 * 1024


_RETAINED_BY_A_LONG_ELEMENT = """
import gc, random, tracemalloc
from kncrystals import CartanType, TensorElement, charge, columns, energy_DL, energy_DR
A3 = CartanType("A", 3)
rng = random.Random(3)
b = TensorElement(A3, tuple(rng.choice(columns(A3, 1)) for _ in range(600)))
tracemalloc.start()
values = energy_DL(b), energy_DR(b), charge(b)
gc.collect()
print(*values, tracemalloc.get_traced_memory()[0])
"""


def test_a_long_element_leaves_no_plan_behind():
    # a per-shape cache of the chain rows of these 600 factors, one
    # reference a step, retained about 2.9 MB (31 MB at 2,000 factors, which
    # took ten times as long to trace)
    d_left, d_right, c, retained = map(int, fresh_python(_RETAINED_BY_A_LONG_ELEMENT))
    assert d_left == -c and d_right <= 0
    assert retained < 1024 * 1024


_RETAINED_BY_DISTINCT_SHAPES = """
import gc, random, tracemalloc
from kncrystals import CartanType, TensorElement, columns, energy_DL, energy_DR
A4 = CartanType("A", 4)
rng = random.Random(11)
elements = [
    TensorElement(A4, tuple(rng.choice(columns(A4, rng.randint(1, 3))) for _ in range(20)))
    for _ in range(1050)
]
warm, elements = elements[:50], elements[50:]
for b in warm:  # meets every pair of heights in both directions
    energy_DL(b), energy_DR(b)
shapes = len({b.heights for b in elements})
tracemalloc.start()
for b in elements:
    energy_DL(b), energy_DR(b)
gc.collect()
print(shapes, tracemalloc.get_traced_memory()[0])
"""


def test_distinct_shapes_retain_nothing():
    # the rows are per type; a plan per shape retained about 7 MB here
    shapes, retained = map(int, fresh_python(_RETAINED_BY_DISTINCT_SHAPES))
    assert shapes == 1000
    assert retained < 256 * 1024

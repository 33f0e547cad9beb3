"""The local energy tables: pinned contents, shared keys, and the checks of
the coded builds."""

import hashlib
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest
from util import theorem_shapes

import kncrystals
from kncrystals import (
    CartanType,
    combinatorial_r,
    energy_DL,
    energy_DR,
    energy_report,
    iter_tensor_elements,
    local_energy,
    local_table,
    shape_heights,
)
from kncrystals.errors import EnergyInconsistent, NoMatchingComponent

energy_module = import_module("kncrystals.energy")

C3 = CartanType("C", 3)

# sha256 (first 16 hex digits) of repr(list(table.sigma.items())) and of
# repr(list(table.h.items())), taken from the tuple-keyed builders that the
# coded ones replaced; insertion order is part of the digest
PINNED = {
    # C4
    ("C", 4, 4, 4): ("656c9fd88220942b", "5d75d972b0eb088c"),
    ("C", 4, 4, 3): ("63f815d59a5c38db", "a6f59f04c1c8af95"),
    ("C", 4, 4, 2): ("e41f18cbae2817e0", "763bc2b996203f07"),
    ("C", 4, 4, 1): ("bdc32a1f2f7e863d", "d69e57631f09c1c9"),
    ("C", 4, 3, 4): ("fe05031f0a781e7a", "42b8530d9aa382a6"),
    ("C", 4, 3, 3): ("38ff1b4c2cf75cc1", "451124580560be89"),
    ("C", 4, 3, 2): ("18b689b137b4f3d7", "d7adc4c528a22243"),
    ("C", 4, 3, 1): ("bea622c4da36e49c", "faaa1d30cf40500b"),
    ("C", 4, 2, 4): ("087d48378489c46d", "6da7661593fca151"),
    ("C", 4, 2, 3): ("51b30870fd9b0a6c", "f865ffd3bc43e416"),
    ("C", 4, 2, 2): ("56af786bd26bb710", "48456c17b65db79b"),
    ("C", 4, 2, 1): ("7a152920dff25a13", "94ea9e5ed073f31d"),
    ("C", 4, 1, 4): ("4b25ae63bab0121a", "31b15a2c9d0c03f1"),
    ("C", 4, 1, 3): ("78f38de3a8857f20", "35f26c870b56d0c9"),
    ("C", 4, 1, 2): ("4f1457d5512bc94a", "4a03b44434ccadde"),
    ("C", 4, 1, 1): ("3557ab7c8e164119", "ab31c723904abbd6"),
    # C3
    ("C", 3, 3, 3): ("93cc766e09ce4309", "d459868b00e49752"),
    ("C", 3, 3, 2): ("3b6f4b9ae3b5a28b", "d1fad9637bbe5a3a"),
    ("C", 3, 3, 1): ("2eb0b1b5503d9415", "d77ce4c333998a20"),
    ("C", 3, 2, 3): ("4fd97b50faf6c526", "983f9d64ff67b42d"),
    ("C", 3, 2, 2): ("50d860d5642a1950", "3b9ac93e5903f270"),
    ("C", 3, 2, 1): ("781535e469fead4f", "1f7f6348c42f9069"),
    ("C", 3, 1, 3): ("2ca93fdcf6dc2128", "d7ca391a9eefb190"),
    ("C", 3, 1, 2): ("99b337245bd435e5", "4eaee905c62634b4"),
    ("C", 3, 1, 1): ("0e53338dc5de1d05", "9ca1c698184ce98a"),
    # A5
    ("A", 5, 3, 3): ("794dadc429c4c907", "f0ca357019ccd08f"),
    ("A", 5, 3, 2): ("9b1d353bc7083440", "2e8f840aaa917de0"),
    ("A", 5, 3, 1): ("884f3bc9a88ed86c", "4128b9e650e2695a"),
    ("A", 5, 2, 3): ("68743374216a54c9", "d2e7240e4bedd1fb"),
    ("A", 5, 2, 2): ("1736d993bef9ffaf", "2051fab94d355d3a"),
    ("A", 5, 2, 1): ("6c0d587498d8e937", "1a793e23b5275070"),
    ("A", 5, 1, 3): ("6b44a0e43c597a22", "6a67d09f62cad844"),
    ("A", 5, 1, 2): ("4155b1ab15e145e5", "82c914d3d4c8d016"),
    ("A", 5, 1, 1): ("1b4e6c1659fdded1", "26a23cb8d610a4d7"),
}


def _digest(items):
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


def test_tables_match_the_pinned_digests():
    for (family, n, hl, hr), (want_sigma, want_h) in PINNED.items():
        table = local_table(CartanType(family, n), hl, hr)
        assert _digest(table.sigma.items()) == want_sigma, (family, n, hl, hr)
        assert _digest(table.h.items()) == want_h, (family, n, hl, hr)


def test_tables_share_their_pair_keys():
    for hl, hr in ((2, 1), (1, 2), (3, 3), (3, 1)):
        table = local_table(C3, hl, hr)
        swapped = local_table(C3, hr, hl)
        sigma_keys = {id(k) for k in table.sigma}
        assert {id(k) for k in table.h} == sigma_keys
        assert {id(v) for v in table.sigma.values()} == {id(k) for k in swapped.sigma}


def _corrupt(monkeypatch, height, index, slot, change):
    """Serve a copy of the coded maps with ``change`` applied to one list."""
    real = energy_module._column_codes

    def corrupted(ct, h, i):
        maps = [list(m) for m in real(ct, h, i)]
        if (h, i) == (height, index):
            change(maps[slot])
        return tuple(maps)

    monkeypatch.setattr(energy_module, "_column_codes", corrupted)


def _undefine_first(codes):
    codes[next(c for c, t in enumerate(codes) if t >= 0)] = -1


def _redirect_first(codes):
    first = next(c for c, t in enumerate(codes) if t >= 0)
    codes[first] = (codes[first] + 1) % len(codes)


@pytest.mark.parametrize(
    "height, index, slot, change",
    [
        (1, 1, 2, _undefine_first),  # a classical f undefined
        (2, 2, 2, _redirect_first),  # a classical f pointing elsewhere
        (2, 0, 3, _undefine_first),  # e_0 undefined
        (1, 0, 3, _redirect_first),  # e_0 pointing elsewhere
        (1, 0, 2, _redirect_first),  # f_0 pointing elsewhere
    ],
)
def test_corrupted_maps_fail_the_build(monkeypatch, height, index, slot, change):
    _corrupt(monkeypatch, height, index, slot, change)
    with pytest.raises((NoMatchingComponent, EnergyInconsistent)):
        for hl, hr in ((2, 1), (1, 2), (2, 2), (1, 1)):
            order, image = energy_module._build_sigma(C3, hl, hr)
            energy_module._build_h(C3, hl, hr, image)


def test_uncorrupted_copies_build_the_same_tables(monkeypatch):
    # the control: served through the same wrapper, but with no list changed
    _corrupt(monkeypatch, None, None, 0, None)
    for hl, hr in ((2, 1), (3, 3)):
        table = local_table(C3, hl, hr)
        order, image = energy_module._build_sigma(C3, hl, hr)
        h_order, values = energy_module._build_h(C3, hl, hr, image)
        keys = energy_module._pair_keys(C3, hl, hr)
        swapped = energy_module._pair_keys(C3, hr, hl)
        assert [(keys[p], swapped[image[p]]) for p in order] == list(table.sigma.items())
        assert [(keys[p], values[p]) for p in h_order] == list(table.h.items())


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


def test_coded_transport_matches_the_pair_maps():
    for ct, mu in theorem_shapes():
        for b in iter_tensor_elements(ct, shape_heights(ct, mu)):
            left, right = _reference_terms(b)
            report = energy_report(b)
            assert report.left_terms == left, b
            assert report.right_terms == right, b
            assert energy_DL(b) == report.d_left == sum(left.values()), b
            assert energy_DR(b) == report.d_right == sum(right.values()), b


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


def _python(code):
    """Run ``code`` in a fresh interpreter on the package under test."""
    src = str(Path(kncrystals.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


_TRANSPORT_BUILDS_NO_PAIR_KEYS = """
import random
from kncrystals import CartanType, TensorElement, columns, energy_DL, local_table
from kncrystals.energy import _pair_keys
ct, heights = CartanType("C", 4), (4, 3, 2, 1)
for hl in heights:
    for hr in heights:
        len(local_table(ct, hl, hr).sigma)
rng = random.Random(7)
pools = [columns(ct, h) for h in heights]
for _ in range(1000):
    energy_DL(TensorElement(ct, tuple(rng.choice(p) for p in pools)))
print(_pair_keys.cache_info().currsize)
table = local_table(ct, 4, 3)
print(len(table.sigma) == len(table.h) == table.n_left * table.n_right)
print(_pair_keys.cache_info().currsize)
"""


def test_set_up_and_transport_build_no_pair_keys():
    assert _python(_TRANSPORT_BUILDS_NO_PAIR_KEYS) == ["0", "True", "0"]


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
    entries, retained = map(int, _python(_RETAINED_BY_ONE_TABLE))
    assert entries == 132 * 165
    assert retained < 512 * 1024

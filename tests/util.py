"""Shared helpers for the test suite."""

from importlib import import_module

from kncrystals import CartanType, conjugate

# the package exports the function ``charge``, which shadows the module
charge_module = import_module("kncrystals.charge")
energy_module = import_module("kncrystals.energy")


def clear_step_tables():
    """Forget charge's records, with their step tables and key column registries.

    A test that patches the plain circular step clears them first, or a
    table warmed by an earlier test would answer in its place.
    """
    charge_module._STORE.clear()


def clear_energy_rows():
    """Forget energy's transport rows, with the local tables they hold.

    A test that clears the ``local_table`` cache clears them too, or the
    rows would keep answering with the tables from before.
    """
    energy_module._ROWS.clear()


def energy_rows():
    """The ``(ct, step)`` of every direction that energy's transport rows hold."""
    return list(energy_module._ROWS)


def _stored(size):
    return {
        key: value
        for key, value in charge_module._STORE.items()
        if isinstance(key, tuple) and len(key) == size
    }


def step_tables():
    """Charge's step tables by ``(ct, h_prev, h)``, read off its records."""
    return {key: rec[1] for key, rec in _stored(3).items()}


def key_registries():
    """Charge's key column registries, ``(keys, codes)`` by ``(ct, h)``."""
    return {key: (keys, codes) for key, (keys, codes, _) in _stored(2).items()}


def partitions_of(total, maxpart=None):
    maxpart = total if maxpart is None else maxpart
    if total == 0:
        yield ()
        return
    for first in range(min(total, maxpart), 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


def theorem_shapes():
    """The exhaustive-verification shapes: all valid mu within the caps."""
    out = []
    for n in (2, 3, 4):
        ct = CartanType("A", n)
        for size in range(1, 9):
            for mu in partitions_of(size, maxpart=3):
                if conjugate(mu)[0] <= ct.max_height:
                    out.append((ct, mu))
    for n in (2, 3):
        ct = CartanType("C", n)
        for size in range(1, 7):
            for mu in partitions_of(size, maxpart=2):
                if conjugate(mu)[0] <= ct.max_height:
                    out.append((ct, mu))
    return out

"""Shared helpers for the test suite."""

from importlib import import_module

from kncrystals import CartanType, conjugate

# the package exports the function ``charge``, which shadows the module
charge_module = import_module("kncrystals.charge")


def clear_step_tables():
    """Forget charge's step tables, key column registries and cached plans.

    A test that patches the plain circular step clears them first, or a
    table warmed by an earlier test would answer in its place.
    """
    charge_module._STEP_TABLES.clear()
    charge_module._KEY_CODES.clear()
    charge_module._charge_plan.clear()


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

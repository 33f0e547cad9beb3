"""Shared helpers for the test suite."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import kncrystals
from kncrystals import CartanType, conjugate

# the package exports the function ``charge``, which shadows the module
charge_module = import_module("kncrystals.charge")
energy_module = import_module("kncrystals.energy")


def clear_charge_states():
    """Forget charge's states, with their transitions and shared entries.

    A test that patches the plain circular step clears them first, or a
    transition stored by an earlier test would answer in its place.
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


def charge_states():
    """Charge's states and their stored transitions, ``{column: entry}`` by
    ``(ct, key column)``; a type's start state is under ``(ct, None)``."""
    states = {}
    for key, value in charge_module._STORE.items():
        if isinstance(key, tuple):  # ``(ct, "registry")``
            states.update(((key[0], k), s) for k, s in value.items() if isinstance(s, dict))
        else:
            states[key, None] = value
    return {
        key: {col: entry for col, entry in state.items() if col is not None}
        for key, state in states.items()
    }


def fresh_python(code):
    """Run ``code`` in a fresh interpreter on the package under test; its output, split."""
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

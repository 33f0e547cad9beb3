"""Charge statistics on tensor products of columns.

Two interchangeable computations are provided for each type and cross-checked
in the tests:

* the circular-order reordering of the filling followed by summing arm
  lengths over descents (full arms in type A, half the arm sum in type C,
  where the filling is first written in split form), and
* the selection algorithm on the charge word, scanning right to left and
  wrapping around with a penalty.

The descent-arm route is the default; the selection route is the oracle.
It runs on integer keys, the positions of the letters in the total order.
Each factor's key columns (both split halves in type C) come from a table
cached per column, and they are sorted, so the circularly smallest unused
key from ``p`` is the first one ``>= p`` (found by bisection), or else the
smallest one.  One position-free circular step, :func:`_circ_step`,
reorders a factor against the key column produced before it and returns
the produced key columns and the descent cells ``(half, row)``;
:func:`circ_ord` places them in the filling and maps keys back to letters
in closed form.

A step depends only on the key column produced before it and the factor's
column, so ``charge`` and the prefix scan of :mod:`kncrystals.qpoly` read
it from process-wide int arrays, one per ``(ct, h_prev, h)``, at ``(prev
code + 1) * |columns(ct, h)| + column code`` (-1 where none is stored).  A
column's code is its place in ``columns(ct, h)``; a produced key column (in
row order, so not a column) gets one on first sight from a registry per
``(ct, h)``, and the first factor's prev code is -1.  An entry holds the
next code above a bitmask of the descent rows, whose arms depend on the
position and are summed per shape.  A miss runs the plain step; a step that
raises is never stored, and a table stops at ``STEP_TABLE_CAP`` slots.

Both routes require the column heights to be weakly decreasing left to right;
callers holding an unsorted element can reorder it with
:func:`kncrystals.qpoly.sort_via_rmatrix`, which preserves the energy.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from operator import lt

from .core import _PerShape, _check_rank_work, _column_index, split_column
from .errors import (
    HeightsNotSorted,
    NotPartitionContent,
    OddArmSum,
    ShapeTooLarge,
)

#: Slots per step table; a step whose slot lies past it is not stored, and a
#: produced key column it meets for the first time gets no code.
STEP_TABLE_CAP = 1 << 16
_SPILL = 1 << 40  # codes from here on: key columns that got none, per caller

# (ct, h_prev, h) -> array of entries by key, -1 where no step is stored yet
_STEP_TABLES = {}
_KEY_CODES = {}  # (ct, h) -> ([produced key column by code], {key column: code})


def _require_sorted(heights):
    if any(map(lt, heights, heights[1:])):
        raise HeightsNotSorted(f"column heights {heights} are not weakly decreasing")


def ls_charge(word):
    """Lascoux-Schutzenberger charge of a word with partition content.

    Letters are positive integers.  Each round scans from the right end,
    selecting 1, 2, ..., k, always taking the nearest unused occurrence to
    the left of the previous selection and wrapping to the rightmost one
    when none exists; every wrap while seeking j+1 contributes k - j.
    Selected letters are removed and the procedure repeats.
    """
    word = list(word)
    if any(x < 1 for x in word):
        raise NotPartitionContent("letters must be positive integers")
    top = max(word, default=0)
    counts = [word.count(j) for j in range(1, top + 1)]
    if any(a < b for a, b in zip(counts, counts[1:])):
        raise NotPartitionContent(f"content {counts} is not a partition")
    return _selection_charge(word, paired=False)


@dataclass(frozen=True)
class ChargeWord:
    """The sorted biword of a filling.

    Biletters pair each entry with its column label; labels count the
    columns of the (split, in type C) filling left to right starting at 1,
    so in type C the odd labels are the unprimed ones.  Biletters are listed
    in decreasing order of the entries, ties broken by decreasing label.
    """

    cartan: object
    doubled: bool
    biletters: tuple  # of (letter, label)

    @property
    def cw2(self):
        return tuple(label for _, label in self.biletters)


def split_factors(elem):
    """The doubled column sequence of a type C element, left to right."""
    ct = elem.cartan
    out = []
    for col in elem.factors:
        left, right = split_column(ct, col)
        out.append(left)
        out.append(right)
    return tuple(out)


def charge_word(elem):
    ct = elem.cartan
    _require_sorted(elem.heights)
    if ct.family == "C":
        cols = split_factors(elem)
        doubled = True
    else:
        cols = elem.factors
        doubled = False
    bis = []
    for j, col in enumerate(cols, start=1):
        for x in col:
            bis.append((x, j))
    bis.sort(key=lambda kl: (-ct.key(kl[0]), -kl[1]))
    return ChargeWord(ct, doubled, tuple(bis))


@dataclass(frozen=True)
class CircFilling:
    """A filling of the (doubled) shape produced by the circular reordering.

    Columns are stored in produced row order, top row first; ``heights``
    lists the column heights left to right.  ``descent_cells`` holds the
    cells recorded while the columns were produced.
    """

    cartan: object
    doubled: bool
    heights: tuple
    cols: tuple
    descent_cells: tuple

    def descents(self):
        """Cells (row, column), 1-based, whose right neighbour is smaller."""
        return self.descent_cells

    def arm(self, row, col):
        return self._arms[col][row]

    @cached_property
    def _arms(self):
        # once per filling: a long shape's table is not kept per shape
        return _arm_table[self.cartan, self.heights]


@_PerShape
def _arm_table(ct, heights):
    """``_arm_table[ct, heights]``: ``table[col][row]``, the cells in ``row``
    from column ``col`` (0-based) on of a filling whose columns have the
    ``heights``, split halves and all.  Built from the right by suffix counts.
    """
    count, table = [0] * (max(heights) + 1), []
    for h in reversed(heights):
        for row in range(h + 1):
            count[row] += 1
        table.append(tuple(count))
    return tuple(reversed(table))


@lru_cache(maxsize=None)
def _key_columns(ct, col):
    """The key tuples of a factor: its two split halves in type C, else itself."""
    halves = split_column(ct, col) if ct.family == "C" else (col,)
    return tuple(tuple(ct.key(x) for x in half) for half in halves)


def _circ_step(ct, prev, col):
    """The circular step of one factor, at no particular position.

    ``prev`` is the key column produced just before the factor, or None for
    the first factor, whose first half stays put.  Each later half takes,
    row by row, the unused key circularly smallest from ``prev``'s key in
    that row.  Returns the factor's produced key columns (both split halves
    in type C) and its descent cells ``(half, row)``, rows 1-based; a
    descent into the right half of a split pair raises ``OddArmSum``.
    """
    produced = []
    cells = []
    half = 0  # counted by hand: enumerate here made charge about 10% slower
    for keys in _key_columns(ct, col):
        if prev is not None:
            pool = list(keys)
            picks = []
            for p in prev[: len(pool)]:
                pick = pool.pop(bisect_left(pool, p) % len(pool))
                if p > pick:
                    row = len(picks) + 1
                    if half:
                        raise OddArmSum(
                            f"descent inside the split pair of column {col} at row {row}"
                        )
                    cells.append((half, row))
                picks.append(pick)
            keys = tuple(picks)
        produced.append(keys)
        prev = keys
        half = 1
    return produced, cells


def _halve(arms, halves, where):
    """The charge from an arm sum over ``halves`` columns per factor."""
    if arms % halves:
        raise OddArmSum(f"odd descent arm sum {arms} at {where}")
    return arms // halves


def circ_ord(elem):
    """Reorder a filling column by column against the circular order.

    The first column stays put; each later cell takes the unused letter of
    its column that is circularly smallest from the previous column's entry
    in the same row.  In type C the rule runs over the doubled sequence of
    split columns, and a descent inside a split pair raises ``OddArmSum``.
    """
    ct = elem.cartan
    _require_sorted(elem.heights)
    doubled = ct.family == "C"
    halves = 2 if doubled else 1
    out = []
    cells = []
    for p, col in enumerate(elem.factors):
        produced, descents = _circ_step(ct, out[-1] if out else None, col)
        out += produced
        cells += [(row, p * halves + half) for half, row in descents]
    # keys 1..n are the letters 1..n; key 2n + 1 - z is the barred letter z
    top, shift = ct.n, 2 * ct.n + 1
    return CircFilling(
        ct,
        doubled,
        tuple(len(c) for c in out),
        tuple(tuple(k if k <= top else k - shift for k in c) for c in out),
        tuple(cells),
    )


def charge_from_filling(filling):
    arm = filling._arms
    arms = sum(arm[j][i] for i, j in filling.descents())
    return _halve(arms, 2 if filling.doubled else 1, filling.cols)


class _ArmSums(dict):
    """Descent rows (a bitmask) -> their arm sum at one position, filled on first sight."""

    def __init__(self, arm):
        self.arm = arm

    def __missing__(self, rows):
        total = self[rows] = sum(a for row, a in enumerate(self.arm) if rows >> row & 1)
        return total


def _coded_plan(ct, heights):
    """Per factor: (column index, column count, step table, shift, mask, arm
    sums, key columns, key codes), the last two its height's registry.  An
    entry ``e`` holds the next code ``e >> shift`` and the rows ``e & mask``.
    """
    halves = 2 if ct.family == "C" else 1
    arm = _arm_table[ct, tuple(h for h in heights for _ in range(halves))]
    plan = []
    for p, (h_prev, h) in enumerate(zip(heights[:1] + heights, heights)):
        index = _column_index(ct, h)
        plan.append((index, len(index), _STEP_TABLES.setdefault((ct, h_prev, h), array("i")),
                     h + 1, (2 << h) - 1, _ArmSums(arm[p * halves]),
                     *_KEY_CODES.setdefault((ct, h), ([], {}))))
    return plan


@_PerShape
def _charge_plan(ct, heights):
    """``_charge_plan[ct, heights]``: ``_coded_plan``, or None if a table's
    rank work is over the budget.

    An unsorted shape raises ``HeightsNotSorted`` here, so it is never
    cached and raises on every call.  Each table's pair of heights is
    checked as ``local_table`` checks its own.
    """
    _require_sorted(heights)
    try:
        for pair in zip(heights[:1] + heights, heights):
            _check_rank_work(ct, pair)
    except ShapeTooLarge:
        return None
    return _coded_plan(ct, heights)


def _step_miss(ct, rec, prev_keys, code, col, spill):
    """The entry of a step its table lacks: the plain step, stored if its row fits the cap.

    ``code`` is -1 before the first factor, else the previous key column's
    place in ``prev_keys``, or from ``_SPILL`` on for one that got no code
    past a full table: ``spill``, the caller's, maps such codes and key
    columns both ways.  A table grows by whole rows of ``n`` slots.
    """
    index, n, table, shift, _, _, keys, codes = rec
    prev = None if code < 0 else prev_keys[code] if code < _SPILL else spill[code]
    produced, cells = _circ_step(ct, prev, col)
    key, end = produced[-1], (code + 2) * n
    nxt = codes.get(key)
    if nxt is None and end <= STEP_TABLE_CAP:
        nxt = codes[key] = len(keys)
        keys.append(key)
    elif nxt is None:
        nxt = spill.setdefault(key, _SPILL + len(spill) // 2)
        spill[nxt] = key
    entry = nxt << shift | sum(1 << row for _, row in cells)
    if end <= STEP_TABLE_CAP and entry < 1 << 31:  # a slot holds an "i"
        table.extend(repeat(-1, end - len(table)))
        table[(code + 1) * n + index[col]] = entry
    return entry


def charge(elem):
    """The charge statistic; equal to minus the energy D.

    One pass over the factors that reads each step from the step tables and
    adds up the descent arms, with no filling built.  Over the rank budget
    it takes the plain route of ``circ_ord``, which builds no column index.
    """
    ct, factors = elem.cartan, elem.factors
    plan = _charge_plan[ct, tuple(map(len, factors))]
    if plan is None:
        return charge_from_filling(circ_ord(elem))
    code, keys, spill, arms = -1, None, {}, 0
    for rec, col in zip(plan, factors):
        index, n, table, shift, mask, sums, next_keys, _ = rec
        key = (code + 1) * n + index[col]
        entry = table[key] if key < len(table) else -1
        if entry < 0:
            entry = _step_miss(ct, rec, keys, code, col, spill)
        code, keys = entry >> shift, next_keys
        arms += sums[entry & mask]
    return _halve(arms, 2, factors) if ct.family == "C" else arms


def _selection_charge(word, paired):
    """Charge of a label word by the selection algorithm.

    With ``paired`` the labels 1, 2, 3, 4, ... stand for 1, 1', 2, 2', ...;
    a wrap while seeking a primed label violates the structural guarantee
    and raises, and a wrap while seeking the unprimed label j+1 contributes
    k - j, where k is the number of pairs selected in the round.

    Each label keeps the increasing positions of its unselected occurrences.
    A pick is the last of them left of the previous pick, found by one
    bisection; index -1 there is the wrap to the rightmost occurrence.  A
    round starts at position ``len(word)``, so its first pick never wraps.
    """
    slots = {}
    for p, label in enumerate(word):
        slots.setdefault(label, []).append(p)
    total = 0
    while slots.get(1):
        pos = len(word)
        wraps = []
        target = 1
        while occ := slots.get(target):
            i = bisect_left(occ, pos) - 1
            if i < 0:
                wraps.append(target)
            pos = occ.pop(i)
            target += 1
        top = target - 1
        if not paired:
            total += sum(top - (t - 1) for t in wraps)
        else:
            if top % 2:
                raise OddArmSum("selection round ended between a pair")
            k = top // 2
            for t in wraps:
                if t % 2 == 0:
                    raise OddArmSum(
                        f"wrap while seeking the primed label {t // 2}'"
                    )
                total += k - (t - 1) // 2
    return total


def charge_via_selection(elem):
    """Charge by the selection algorithm on the charge word (the oracle)."""
    cw = charge_word(elem)
    return _selection_charge(cw.cw2, cw.doubled)

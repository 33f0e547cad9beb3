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
it from process-wide records, one per ``(ct, h_prev, h)``, kept in
``_STORE``, in int arrays at ``(prev code + 1) * |columns(ct, h)| + column
code`` (-1 where none is stored).  A column's code is its place in
``columns(ct, h)``; a produced key column (in row order, so not a column)
gets one on first sight from a registry per ``(ct, h)``, and the first
factor's prev code is -1.  An entry holds the next code above a bitmask of
the descent rows.  A miss runs the plain step; a step that raises is never
stored, and a table stops at ``STEP_TABLE_CAP`` slots.  No arm needs the
shape: a descent in row r at factor p has the arm ``#{q >= p : h_q >= r}``
(in type C, the split filling's doubled arm halved back).

``charge`` reaches its records as energy reaches its transports, through
plain dicts: the row of a height-``h`` factor, shared per ``(ct, h)``, maps
each column that may follow it to its code and its record, and a type's
first row does so for a first factor.  A row fills a whole height at a time
on a miss, through :func:`kncrystals.core._fill_row`, which holds the rank
work to the budget and refuses a factor that is not a column first.

Both routes require the column heights to be weakly decreasing left to right;
callers holding an unsorted element can reorder it with
:func:`kncrystals.qpoly.sort_via_rmatrix`, which preserves the energy.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from operator import lt, neg

from .core import _fill_row, columns, split_column
from .errors import HeightsNotSorted, NotPartitionContent, OddArmSum, ShapeTooLarge

#: Slots per step table; a step whose slot lies past it is not stored, and a
#: produced key column it meets for the first time gets no code.
STEP_TABLE_CAP = 1 << 16
_SPILL = 1 << 40  # codes from here on: key columns that got none, per caller

#: Bits of a field of the packed prefix counts.  A field counts at most one
#: descent per cell of the element, so 48 bits hold any element in memory.
_FIELD = 48
_FIELD_MASK = (1 << _FIELD) - 1


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
        """The cells in ``row`` from column ``col`` (0-based) on: ``L_row - col``
        where positive, ``L_row`` being the columns of height at least ``row``
        (the heights weakly decrease)."""
        return max(0, bisect_right(self.heights, -row, key=neg) - col)


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
    arms = sum(filling.arm(row, col) for row, col in filling.descents())
    if filling.doubled and arms % 2:
        raise OddArmSum(f"odd descent arm sum {arms} at {filling.cols}")
    return arms // 2 if filling.doubled else arms


class _Increments(dict):
    """Descent rows (a bitmask) -> their update of the packed prefix counts at
    a height-``h`` step: one in field ``r`` for each of the rows ``<= r``."""

    def __init__(self, h):
        self.h = h

    def __missing__(self, rows):
        inc = self[rows] = sum(
            (rows & (2 << r) - 1).bit_count() << _FIELD * (r - 1) for r in range(1, self.h + 1)
        )
        return inc


# ``[ct]``: a type's first row; ``[ct, h_prev, h]``: a record; ``[ct, h]``: height
# ``h``'s key columns, their codes and its row of successors.  One clear() drops all.
_STORE = {}


def _record(ct, h_prev, h):
    """``(column count, step table, shift, mask, increments, read, successors, h,
    registries)`` of a height-``h`` factor's steps after a height-``h_prev`` one.
    An entry ``e`` holds the next code ``e >> shift`` and the descent rows
    ``e & mask``; field ``h`` of the packed prefix counts is at bit ``read``;
    ``successors`` is height ``h``'s row, shared by every record of that height;
    and the registries are height ``h_prev``'s key columns and height ``h``'s
    key columns and codes.
    """
    rec = _STORE.get((ct, h_prev, h))
    if rec is None:
        keys, codes, successors = _STORE.setdefault((ct, h), ([], {}, {}))
        prev_keys = _STORE.setdefault((ct, h_prev), ([], {}, {}))[0]
        rec = _STORE[ct, h_prev, h] = (
            len(columns(ct, h)), array("i"), h + 1, (2 << h) - 1, _Increments(h),
            _FIELD * (h - 1), successors, h, (prev_keys, keys, codes),
        )
    return rec


def _step_miss(ct, rec, code, col, c, spill):
    """The entry of a step its table lacks: the plain step, stored if its row fits the cap.

    ``c`` is the code of ``col``.  ``code`` is -1 before the first factor, else
    the previous key column's place in the record's previous key columns, or
    from ``_SPILL`` on for one that got no code past a full table: ``spill``,
    the caller's, maps such codes and key columns both ways.  A table grows by
    whole rows of ``n`` slots.
    """
    n, table, shift, _, _, _, _, _, (prev_keys, keys, codes) = rec
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
        table[(code + 1) * n + c] = entry
    return entry


def charge(elem):
    """The charge statistic; equal to minus the energy D.

    One pass along the rows of successors, with nothing kept per shape.
    Summing each descent's arm over the factors it reaches, the charge is the
    sum over q of the descents in rows ``<= h_q`` among factors 0 to q: field
    ``h_q`` of the packed prefix counts.  Over the rank budget it takes the
    plain route of ``circ_ord``, which builds no column index.
    """
    ct, factors = elem.cartan, elem.factors
    row = _STORE.get(ct) or _STORE.setdefault(ct, {})
    code, spill, counts, total = -1, {}, 0, 0
    h = len(factors[0]) if factors else 0  # a first factor follows its own height
    try:
        for col in factors:
            try:
                c, rec = row[col]
            except KeyError:
                if len(col) > h:
                    _require_sorted(elem.heights)
                c, rec = _fill_row(ct, row, col, partial(_record, ct, h, len(col)), h, len(col))
            n, table, shift, mask, inc, read, row, h, _ = rec
            key = (code + 1) * n + c
            entry = table[key] if key < len(table) else -1
            if entry < 0:
                entry = _step_miss(ct, rec, code, col, c, spill)
            code = entry >> shift
            counts += inc[entry & mask]
            total += counts >> read & _FIELD_MASK
    except ShapeTooLarge:
        return charge_from_filling(circ_ord(elem))
    return total


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

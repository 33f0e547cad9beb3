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
column, so charge is a finite automaton whose states are the produced key
columns of a type, plus one start state per type before the first factor.
``charge`` and the prefix scan of :mod:`kncrystals.qpoly` walk it through
``_STORE``: a state is a plain dict that maps a factor's column to its entry
``(next state, increment of the packed prefix counts, read shift)``, and
``None`` to its key column.  A missing transition runs the plain step
(:func:`_step`) on the factor and that key column alone; a factor is first
held to :func:`kncrystals.core.validate_column`, the check ``element()``
makes, in :func:`_key_columns`.  A step that raises is never stored.
``STEP_TABLE_CAP`` is charge's only bound on memory: a type stores at most
that many transitions, and :func:`_key_columns` keeps the key columns of at
most that many columns, dropping the least recently used.  No arm needs the
shape: a descent in row r at factor p has the arm ``#{q >= p : h_q >= r}``
(in type C, the split filling's doubled arm halved back).

Both routes require the column heights to be weakly decreasing left to right;
callers holding an unsorted element can reorder it with
:func:`kncrystals.qpoly.sort_via_rmatrix`, which preserves the energy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import lt, neg

from .core import split_column, validate_column
from .errors import HeightsNotSorted, NotPartitionContent, OddArmSum

#: Transitions stored per type, and columns whose key columns are kept.
STEP_TABLE_CAP = 1 << 16

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


@lru_cache(maxsize=STEP_TABLE_CAP)
def _key_columns(ct, col):
    """The key tuples of a factor: its two split halves in type C, else itself;
    a factor that is not a column raises what ``element()`` raises for it, a
    check cached here to run once per kept column, not once per transition."""
    validate_column(ct, col)
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
    for half, keys in enumerate(_key_columns(ct, col)):
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


# ``[ct]``: a type's start state; ``[ct, "registry"]``: the type's registry,
# which maps a produced key column ``key`` to its state, ``(key, inc)`` to
# the entry that reaches that state with the increment ``inc``, and None to
# the transitions stored, so a stored transition hashes the type once.  One
# clear() drops all.
_STORE = {}


def _start(ct):
    """A type's start state, the one before the first factor."""
    return _STORE.setdefault(ct, {None: None})


def _step(ct, state, col):
    """``state[col]`` where no transition is stored: the plain step, stored
    while the type's stored transitions are below ``STEP_TABLE_CAP``.

    A factor that is not a column raises in :func:`_key_columns`; a step
    that raises stores nothing.  An entry is ``(next state, increment of
    the packed prefix counts, read shift)``; the transitions that reach one
    state with one increment share one entry.
    """
    prev, h = state[None], len(col)
    produced, cells = _circ_step(ct, prev, col)
    key = produced[-1]
    # a descent in row r counts in field s of the counts for each row s >= r:
    # it adds 1 << _FIELD * (s - 1) for s = r, ..., h, a geometric sum
    top, inc = 1 << _FIELD * h, 0
    for _, r in cells:
        inc += top - (1 << _FIELD * (r - 1))
    inc //= _FIELD_MASK
    registry = _STORE.setdefault((ct, "registry"), {None: 0})
    nxt = registry.get(key) or {None: key}
    entry = registry.get((key, inc)) or (nxt, inc, _FIELD * (h - 1))
    if registry[None] < STEP_TABLE_CAP:
        registry[None] += 1
        registry[key] = nxt
        registry[key, inc] = state[col] = entry
    return entry


def charge(elem):
    """The charge statistic; equal to minus the energy D.

    One walk of the type's transition map, with nothing kept per shape: each
    factor moves the state, the key column produced last, and adds its
    increment to the packed prefix counts.  Summing each descent's arm over
    the factors it reaches, the charge is the sum over q of the descents in
    rows ``<= h_q`` among factors 0 to q: field ``h_q`` of those counts.
    A step reads only the factor and the key column before it, so no rank
    is too large: no column index is built.
    """
    ct = elem.cartan
    state = _STORE.get(ct) or _start(ct)
    counts = total = 0
    for col in elem.factors:
        try:
            state, inc, read = state[col]
        except KeyError:
            prev = state[None]
            if prev is not None and len(col) > len(prev):
                _require_sorted(elem.heights)
            state, inc, read = _step(ct, state, col)
        counts += inc
        total += counts >> read & _FIELD_MASK
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

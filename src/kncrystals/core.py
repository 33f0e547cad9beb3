"""Alphabets, Kashiwara-Nakashima columns, and crystal operators.

Letters are encoded as signed integers: ``z`` is the unbarred letter z and
``-z`` the barred letter z-bar.  The total order is

    1 < 2 < ... < n < n-bar < ... < 1-bar

which for type A degenerates to 1 < ... < n (no barred letters).  A column
is a tuple of letters, strictly increasing in this order.  A tensor element
stores its factors left to right; the energy-function convention that
"factor 1" is the rightmost factor is kept internal to :mod:`.energy`.

Crystal operators follow the tensor rule

    f_i(b1 (x) b2) = f_i(b1) (x) b2   if eps_i(b1) >= phi_i(b2),
                     b1 (x) f_i(b2)   otherwise,

equivalently the signature rule: concatenate '+'^phi '-'^eps per factor left
to right, cancel adjacent "-+" pairs, then f_i acts on the factor owning the
rightmost surviving '+' and e_i on the one owning the leftmost surviving '-'.

A single column of height k acts as the tensor of its k letters read bottom
to top, i.e. b(k) (x) ... (x) b(1).  The reading direction is a convention
choice; this one is validated by the closure test in the test suite (the set
of admissible columns of each height must be closed under all classical
operators and form a single connected component).

Each (type, index) has one table, filled an item at a time on first sight,
from a box (a letter) or a column to its (eps, phi, f target, e target).
``_entry`` is the one derivation of these entries: a box's from the box
operators, a column's from one ``_signature`` pass over its boxes read
bottom to top, or in closed form under the affine index 0.  ``_signature``
is the one signature rule; it reads the entries for the boxes of a column
and for the factors of an element alike.  The per-column rules
``column_eps_phi``, ``column_f`` and ``column_e`` read a column's entry,
and :mod:`.energy` reads the entries of every column by code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    AdmissibilityViolation,
    ComponentCorrupt,
    NotIncreasing,
    ShapeTooLarge,
    SplitImpossible,
)

#: The one cap on exhaustive work, read by :func:`check_budget` at call time.
VERTEX_BUDGET = 5_000_000

#: Single columns are level-bounded by 1; 0-arrows are Demazure iff eps_0 >= this.
DEMAZURE_LEVEL = 1


@dataclass(frozen=True)
class CartanType:
    """Affine family ('A' for A_{n-1}^(1), 'C' for C_n^(1)) plus the alphabet size n."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in ("A", "C"):
            raise ValueError(f"unsupported family {self.family!r}")
        if self.n < 2:
            raise ValueError("rank parameter n must be at least 2")
        # every cache lookup hashes the type, so the hash is computed once;
        # from ints only, so it is the same in every interpreter (str hashes
        # are salted per process) and a pickled copy hashes like a fresh one
        object.__setattr__(self, "_hash", hash((self.n, self.family == "C")))

    def __hash__(self):
        return self._hash

    @property
    def classical_indices(self):
        top = self.n if self.family == "C" else self.n - 1
        return range(1, top + 1)

    @property
    def index_set(self):
        top = self.n if self.family == "C" else self.n - 1
        return range(0, top + 1)

    @property
    def alphabet_size(self):
        return 2 * self.n if self.family == "C" else self.n

    @property
    def max_height(self):
        return self.n if self.family == "C" else self.n - 1

    def alphabet(self):
        """All letters in increasing total order."""
        if self.family == "A":
            return tuple(range(1, self.n + 1))
        return tuple(range(1, self.n + 1)) + tuple(range(-self.n, 0))

    def is_letter(self, x):
        if self.family == "A":
            return 1 <= x <= self.n
        return x != 0 and -self.n <= x <= self.n

    def key(self, letter):
        """Position of a letter in the total order, 1-based."""
        if letter > 0:
            return letter
        return 2 * self.n + 1 + letter

    def istar(self, i):
        """The Lusztig dual index: n - i in type A, i in type C."""
        return self.n - i if self.family == "A" else i

    def fundamental(self, h):
        """Lambda_h as a coefficient tuple over the affine index set."""
        w = [0] * len(self.index_set)
        w[h] = 1
        return tuple(w)

    def __str__(self):
        return f"{self.family}{self.n}"


# ---------------------------------------------------------------------------
# single boxes

def _box_f(ct, i, x):
    n = ct.n
    if ct.family == "A":
        return x + 1 if x == i else None
    if i < n:
        if x == i:
            return i + 1
        if x == -(i + 1):
            return -i
        return None
    return -n if x == n else None


def _box_e(ct, i, x):
    n = ct.n
    if ct.family == "A":
        return x - 1 if x == i + 1 else None
    if i < n:
        if x == i + 1:
            return i
        if x == -i:
            return -(i + 1)
        return None
    return n if x == -n else None


class _Lazy(dict):
    """A dict that fills a missing key with ``fill(key)`` on first sight."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _entry(ct, i, item):
    """(eps, phi, f target, e target) of a box (a letter) or a column under i."""
    if isinstance(item, int):
        down, up = _box_f(ct, i, item), _box_e(ct, i, item)
    elif i == 0:
        # f_0 trades the largest letter, n in type A and 1-bar in type C,
        # for 1, and e_0 trades them back; each is defined on a column
        # holding just one of the two
        top = ct.n if ct.family == "A" else -1
        down = (1,) + item[:-1] if top in item and 1 not in item else None
        up = item[1:] + (top,) if 1 in item and top not in item else None
    else:
        table, boxes = _TABLES[ct, i], item[::-1]
        eps, phi, f_at, e_at = _signature(table, boxes)
        down, up = _replace(table, boxes, f_at, 2), _replace(table, boxes, e_at, 3)
        return eps, phi, down and sort_letters(ct, down), up and sort_letters(ct, up)
    return int(up is not None), int(down is not None), down, up


#: (ct, i) -> the table of every box and column met so far under index i
_TABLES = _Lazy(lambda key: _Lazy(lambda item: _entry(*key, item)))


def _signature(table, items):
    """Reduce the +/- word of ``items`` listed left to right; the one signature rule.

    Each item's (eps, phi) is read from its ``table`` entry.  Returns (eps,
    phi, f_index, e_index) where the indices say which item the lowering /
    raising operator acts on (None if undefined).  Only counts are kept: an
    item's '+'s first cancel the surviving '-'s, the rightmost surviving '+'
    belongs to the last item left with one, and the leftmost surviving '-'
    to the item that last pushed '-'s onto an empty stack.
    """
    eps = phi = 0
    f_idx = e_idx = None
    for idx, item in enumerate(items):
        e, p, _, _ = table[item]
        if p > eps:
            phi += p - eps
            f_idx = idx
            eps = 0
        else:
            eps -= p
        if e:
            if not eps:
                e_idx = idx
            eps += e
    return eps, phi, f_idx, e_idx if eps else None


def _replace(table, items, idx, slot):
    """``items`` with the item at ``idx``, the one f (slot 2) or e (slot 3)
    acts on by :func:`_signature`, replaced by its target from ``table``;
    None where ``idx`` is None."""
    if idx is None:
        return None
    return items[:idx] + (table[items[idx]][slot],) + items[idx + 1 :]


# ---------------------------------------------------------------------------
# columns

def sort_letters(ct, letters):
    return tuple(sorted(letters, key=ct.key))


def _pair_violation(letters):
    """The first (z, gap) with z and z-bar at distance gap <= k - z, or None.

    Only the letters are scanned, so the check does not grow with the rank.
    """
    k = len(letters)
    pos = {x: p for p, x in enumerate(letters, start=1)}
    for z, p in pos.items():
        if z > 0 and -z in pos and pos[-z] - p <= k - z:
            return z, pos[-z] - p
    return None


def validate_column(ct, letters):
    """Return the column as a canonical tuple or raise.

    In type C both the direct pair condition and splittability are checked;
    the two verdicts are proved equivalent, so a disagreement is a bug.
    """
    letters = tuple(letters)
    for x in letters:
        if not ct.is_letter(x):
            raise AdmissibilityViolation(f"{x} is not a letter of {ct}")
    keys = [ct.key(x) for x in letters]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise NotIncreasing(f"letters {letters} not strictly increasing for {ct}")
    k = len(letters)
    if k == 0:
        raise AdmissibilityViolation("empty column")
    if k > ct.max_height:
        raise AdmissibilityViolation(
            f"height {k} exceeds the maximum {ct.max_height} for {ct}"
        )
    if ct.family == "C":
        if (violation := _pair_violation(letters)) is not None:
            z, gap = violation
            raise AdmissibilityViolation(
                f"pair ({z}, {z}-bar) at distance {gap} <= {k - z} = k - z",
                z=z, gap=gap, bound=k - z,
            )
        if _split_sets(ct, letters) is None:
            raise SplitImpossible(
                f"column {letters} passes the pair condition but cannot be split"
            )
    return letters


def _split_sets(ct, col):
    """The greedy replacement set J for the duplicated letters I, or None."""
    present = {abs(x) for x in col}
    dup = sorted((z for z in present if z in col and -z in col), reverse=True)
    out = []
    prev = ct.n + 1
    for z in dup:
        t = min(prev, z) - 1
        while t >= 1 and t in present:
            t -= 1
        if t < 1:
            return None
        out.append(t)
        prev = t
    return dup, out


def split_column(ct, col):
    """Split a type C column into the pair (left, right) of Definition-style halves.

    Each duplicated letter z (both z and z-bar present) is traded for a fresh
    smaller letter t: the right column replaces z-bar by t-bar, the left one
    replaces z by t.  A column without duplicated letters splits into two
    copies of itself.
    """
    if ct.family != "C":
        raise ValueError("only type C columns split")
    sets = _split_sets(ct, col)
    if sets is None:
        raise SplitImpossible(f"no replacement set exists for {col}")
    dup, repl = sets
    if not dup:
        return col, col
    to_left = dict(zip(dup, repl))
    to_right = {-z: -t for z, t in zip(dup, repl)}
    left = sort_letters(ct, (to_left.get(x, x) for x in col))
    right = sort_letters(ct, (to_right.get(x, x) for x in col))
    return left, right


@lru_cache(maxsize=None)
def columns(ct, k):
    """All admissible columns of height k, sorted.

    The alphabet is in increasing order, so its k-subsets come out increasing
    and in key order.
    """
    check_budget(ct, (k,))
    return tuple(
        c for c in itertools.combinations(ct.alphabet(), k) if _pair_violation(c) is None
    )


@lru_cache(maxsize=None)
def _column_index(ct, h):
    """The code of every height-h column: its position in ``columns(ct, h)``."""
    return {c: k for k, c in enumerate(columns(ct, h))}


def column_content(ct, col):
    m = [0] * ct.n
    for x in col:
        m[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(m)


# the three per-column rules read the column's table entry; they stay
# caches because the benchmark's tracer counts their calls (cache_info)
@lru_cache(maxsize=None)
def column_eps_phi(ct, i, col):
    """(eps_i, phi_i) of a single column."""
    return _TABLES[ct, i][col][:2]


@lru_cache(maxsize=None)
def column_f(ct, i, col):
    return _TABLES[ct, i][col][2]


@lru_cache(maxsize=None)
def column_e(ct, i, col):
    return _TABLES[ct, i][col][3]


def column_eps_weight(ct, col):
    return tuple(column_eps_phi(ct, i, col)[0] for i in ct.index_set)


def column_phi_weight(ct, col):
    return tuple(column_eps_phi(ct, i, col)[1] for i in ct.index_set)


# ---------------------------------------------------------------------------
# tensor elements

@dataclass(frozen=True, slots=True)
class TensorElement:
    """A vertex of a tensor product of single-column crystals.

    Factors are stored left to right as canonically sorted letter tuples.
    Slotted, so an instance carries no attribute dict: exhaustive scans
    and query samples hold many of them.
    """

    cartan: CartanType
    factors: tuple

    @property
    def heights(self):
        return tuple(map(len, self.factors))

    def factor_from_right(self, j):
        """The j-th factor counted from the right, 1-based."""
        return self.factors[len(self.factors) - j]

    def sort_key(self):
        ct = self.cartan
        return tuple(tuple(ct.key(x) for x in c) for c in self.factors)

    def __str__(self):
        from .serialize import serialize_filling

        return serialize_filling(self)


def element(ct, cols):
    """Validate every column and build a TensorElement."""
    cols = tuple(validate_column(ct, c) for c in cols)
    if not cols:
        raise ValueError("a tensor element needs at least one factor")
    return TensorElement(ct, cols)


def eps(elem, i):
    return _signature(_TABLES[elem.cartan, i], elem.factors)[0]


def phi(elem, i):
    return _signature(_TABLES[elem.cartan, i], elem.factors)[1]


def f(elem, i):
    """Apply f_i; None where it is undefined."""
    table, items = _TABLES[elem.cartan, i], elem.factors
    new = _replace(table, items, _signature(table, items)[2], 2)
    return None if new is None else TensorElement(elem.cartan, new)


def e(elem, i):
    """Apply e_i; None where it is undefined."""
    table, items = _TABLES[elem.cartan, i], elem.factors
    new = _replace(table, items, _signature(table, items)[3], 3)
    return None if new is None else TensorElement(elem.cartan, new)


def weight(elem):
    """Classical content vector: m_z = (#z) - (#z-bar)."""
    m = [0] * elem.cartan.n
    for c in elem.factors:
        for x in c:
            m[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(m)


def is_classical_highest(elem):
    return all(eps(elem, i) == 0 for i in elem.cartan.classical_indices)


def _classical_extreme(elem, op):
    """Apply the classical operator ``op`` (e or f) until none applies.

    Returns (end, path) where path lists the applied indices in order.
    """
    path = []
    cur = elem
    while True:
        for i in cur.cartan.classical_indices:
            nxt = op(cur, i)
            if nxt is not None:
                cur = nxt
                path.append(i)
                break
        else:
            return cur, tuple(path)


def classical_highest(elem):
    """(highest, path): lowering by f along reversed(path) recovers elem."""
    return _classical_extreme(elem, e)


def classical_lowest(elem):
    return _classical_extreme(elem, f)


def lusztig_involution(elem):
    """The involution S on the classical component of the element.

    Mirrors the raising word: if b = f_{i_1}...f_{i_m}(highest), then
    S(b) = e_{i_1*}...e_{i_m*}(lowest).  The per-element route:
    :func:`involution_map` maps a whole shape in one walk and must agree.
    """
    ct = elem.cartan
    high, path = classical_highest(elem)
    low, _ = classical_lowest(high)
    cur = low
    for i in reversed(path):
        cur = e(cur, ct.istar(i))
        if cur is None:
            raise ComponentCorrupt(
                f"e_{ct.istar(i)} undefined while mirroring the word of {elem}"
            )
    return cur


def column_involution(ct, col):
    """S on a single column, in closed form: ``lusztig_involution`` of it.

    The column is reversed and each letter x sent to n + 1 - x in type A
    and to x-bar in type C; both maps reverse the total order, so the
    result is increasing.
    """
    if ct.family == "A":
        return tuple(ct.n + 1 - x for x in reversed(col))
    return tuple(-x for x in reversed(col))


# ---------------------------------------------------------------------------
# enumeration and the crystal graph

def _column_count(ct, k, cap):
    """The number of columns of height k, or a number above ``cap`` past it.

    There are C(m, k) columns of height k in type A and C(m, k) - C(m, k - 2)
    Kashiwara-Nakashima columns in type C, over an alphabet of m letters.
    C(m, t) is built up t by t, and it grows with t up to m / 2, so past
    the cap the count stops: the cost is about log2(cap) steps however
    large the rank.  In type C, with k <= n = m / 2, C(m, k - 2) is at most
    1 - 2 / (n + 2) of C(m, k), so a C(m, k) above cap * (n + 2) leaves more
    than ``cap`` columns.
    """
    m = ct.alphabet_size
    if ct.family == "C":
        cap *= ct.n + 2
    c = 1
    for t in range(min(k, m - k)):
        c = c * (m - t) // (t + 1)
        if c > cap:
            break
    if ct.family == "A":
        return c
    return c - c * k * (k - 1) // ((m - k + 2) * (m - k + 1))


def _require_factors(heights):
    if not heights:
        raise ValueError("a shape needs at least one factor")


def _capped_size(ct, heights, cap):
    """The vertex count, or a number above ``cap`` as soon as the count passes it."""
    _require_factors(heights)
    for k in heights:
        if not 1 <= k <= ct.max_height:
            raise ValueError(f"no columns of height {k} in {ct}")
    size = 1
    for k in heights:
        size *= _column_count(ct, k, cap)
        if size > cap:
            break
    return size


def crystal_size(ct, heights):
    """The number of vertices, counted in closed form before any column is built."""
    return _capped_size(ct, heights, math.inf)


def check_budget(ct, heights, per_vertex=1):
    """The vertex count; the one budget gate.  Raises ``ShapeTooLarge`` when
    vertices x ``per_vertex`` (``ct.n`` for n-entry work on every vertex)
    exceed ``VERTEX_BUDGET``.  The count stops as soon as it passes the
    budget, so the check is cheap for any rank and factor count, and a pass
    is remembered per budget: a gate met again is one lookup."""
    heights = tuple(heights)
    key = ct, heights, per_vertex, VERTEX_BUDGET
    size = _PASSED.get(key)
    if size is None:
        size = _capped_size(ct, heights, VERTEX_BUDGET)
        if size > VERTEX_BUDGET:
            shown = ", ".join(map(str, heights[:8])) + (", ..." if len(heights) > 8 else "")
            raise ShapeTooLarge(
                f"{len(heights)} factors of heights ({shown}) of {ct} have more than "
                f"{VERTEX_BUDGET} vertices (the budget)"
            )
        if size * per_vertex > VERTEX_BUDGET:
            raise ShapeTooLarge(f"{size} vertices x rank {per_vertex} of per-vertex work "
                                f"exceed the budget {VERTEX_BUDGET}")
        _PASSED[key] = size
    return size


_PASSED = {}  # (ct, heights, per_vertex, budget) of each pass -> its vertex count


def _checked_index(ct, col, *pair):
    """The column index of ``col``'s height, after the rank work of ``pair``
    passes :func:`check_budget`; ``KeyError`` if ``col`` is not among its
    columns.  Charge's steps and energy's rows pass this gate before
    anything of theirs goes in."""
    check_budget(ct, pair, ct.n)  # before any column index is built
    index = _column_index(ct, len(col))
    if col not in index:
        raise KeyError(col)
    return index


def tensor_elements(ct, heights):
    """All vertices of the shape, in sort-key order (the columns are sorted)."""
    check_budget(ct, heights)
    return list(iter_tensor_elements(ct, heights))


def iter_tensor_elements(ct, heights):
    pools = [columns(ct, h) for h in heights]
    for facs in itertools.product(*pools):
        yield TensorElement(ct, facs)


@dataclass(frozen=True)
class CrystalGraph:
    cartan: CartanType
    heights: tuple
    include_zero: bool
    vertices: tuple
    edges: tuple  # triples (source, i, target) with target = f_i(source)


def crystal_graph(ct, heights, include_zero=True):
    heights = tuple(heights)
    # every f_i runs on every vertex
    check_budget(ct, heights, ct.n)
    verts = list(iter_tensor_elements(ct, heights))
    indices = list(ct.index_set) if include_zero else list(ct.classical_indices)
    edges = []
    for v in verts:
        for i in indices:
            w = f(v, i)
            if w is not None:
                edges.append((v, i, w))
    return CrystalGraph(ct, heights, include_zero, tuple(verts), tuple(edges))


def involution_map(ct, heights):
    """``{b: S(b)}`` on every vertex of the shape, in one walk.

    Each classical component starts at its highest element h, with S(h) =
    ``classical_lowest(h)``, and the walk takes f_i from b in lockstep with
    e_{i*} from S(b): S(f_i b) = e_{i*} S(b).  ``ComponentCorrupt`` is raised
    where just one of the two is defined, where a vertex is reached with two
    images, where weight(S(b)) is not w_0 weight(b) (the content reversed in
    type A, negated in type C), and for a vertex the walk misses.
    """
    heights = tuple(heights)
    # every f_i and e_i runs on every vertex
    size = check_budget(ct, heights, ct.n)
    w0 = (lambda m: m[::-1]) if ct.family == "A" else (lambda m: tuple(-x for x in m))
    duals = [(i, ct.istar(i)) for i in ct.classical_indices]
    highest = filter(is_classical_highest, iter_tensor_elements(ct, heights))
    stack = [(h, classical_lowest(h)[0]) for h in highest]
    image = {}
    while stack:
        b, sb = stack.pop()
        old = image.get(b)
        if old is not None:
            if old != sb:
                raise ComponentCorrupt(f"{b} is reached with the images {old} and {sb}")
            continue
        if weight(sb) != w0(weight(b)):
            raise ComponentCorrupt(f"the image {sb} of {b} has the wrong weight")
        image[b] = sb
        for i, j in duals:
            fb, esb = f(b, i), e(sb, j)
            if (fb is None) != (esb is None):
                raise ComponentCorrupt(f"f_{i} of {b} and e_{j} of {sb} are not both defined")
            if fb is not None:
                stack.append((fb, esb))
    if len(image) != size:
        missed = next(b for b in iter_tensor_elements(ct, heights) if b not in image)
        raise ComponentCorrupt(f"the walk from the classical highest elements misses {missed}")
    return image

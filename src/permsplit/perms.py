"""Permutations in one-line notation, containment, and structural predicates.

A permutation of order n is a sequence of the n distinct values 1..n.  The
one-line tuple is the only internal representation; positions reported by the
public API (embeddings, left-to-right minima, marks) are 1-based, matching the
usual combinatorial convention.

Text format: digits without separators for orders up to 9 ("2413"), otherwise
space-separated integers.  Canonical output is always space-separated, and the
empty permutation prints as "ε" (the empty string is accepted on input).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, islice, permutations
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Permutation:
    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if sorted(vals) != list(range(1, len(vals) + 1)):
            raise ValueError(f"not a permutation of 1..{len(vals)}: {vals!r}")

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> "Permutation":
        """A permutation from a tuple its builder made one by construction:
        no copy and no sort check.  Equality and hashing are the dataclass's."""
        p = object.__new__(cls)
        object.__setattr__(p, "values", values)
        return p

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def text(self) -> str:
        if not self.values:
            return "ε"
        return " ".join(map(str, self.values))

    def __repr__(self) -> str:
        return f"Permutation({self.text()!r})"

    @staticmethod
    def from_text(text: str) -> "Permutation":
        """Parse either digit form ("2413") or space-separated form ("2 4 1 3")."""
        text = text.strip()
        if text in ("", "ε"):
            return EMPTY
        if any(ch.isspace() for ch in text):
            return Permutation(tuple(int(tok) for tok in text.split()))
        return Permutation(tuple(int(ch) for ch in text))


EMPTY = Permutation(())


@dataclass(frozen=True)
class Embedding:
    """Strictly increasing 1-based positions of an occurrence in the host."""

    positions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(self.positions))
        if any(a >= b for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("embedding positions must be strictly increasing")


def decreasing(n: int) -> Permutation:
    """The decreasing permutation n, n-1, ..., 1."""
    return Permutation(tuple(range(n, 0, -1)))


@lru_cache(maxsize=None)
def _neighbour_bounds(
    pattern: tuple[int, ...], pinned: bool
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """For each pattern index k filled in turn, the placed indices whose
    values are nearest below and above pattern[k] (m and m+1 stand for none),
    and how the later free entries read entry k.

    Placed means 0..k-1, plus m-1 when the last entry is pinned.  Entry k's
    role is 1 if it is read only as a lower bound (it is some later entry's
    nearest placed value below, and no later entry's nearest above), 2 if
    only as an upper bound, 3 if both ways and 0 if unread.  That role is all the
    failed-candidate rule of `_first_occurrence` needs: a lower bound is
    better smaller, an upper bound better larger, and an unread entry is only
    ever worse at a later position.
    """
    m = len(pattern)
    free = m - pinned
    lo, hi = [], []
    for k in range(free):
        placed = list(range(k)) + [m - 1] * pinned
        below = [j for j in placed if pattern[j] < pattern[k]]
        above = [j for j in placed if pattern[j] > pattern[k]]
        lo.append(max(below, key=pattern.__getitem__, default=m))
        hi.append(min(above, key=pattern.__getitem__, default=m + 1))
    roles = tuple((k in lo[k + 1:]) + 2 * (k in hi[k + 1:]) for k in range(free))
    return tuple(lo), tuple(hi), roles


def _first_occurrence(
    pattern: tuple[int, ...],
    seq: Sequence[int],
    pinned: bool,
    bound: float = math.inf,
    intervals: list | None = None,
) -> list[int] | None:
    """0-based positions of the lexicographically least occurrence of
    `pattern` in `seq` whose free entries all lie below `bound`, or None;
    with `pinned`, the last pattern entry sits on seq's last entry and only
    the other positions are returned.

    One search with two completion rules.  Without `intervals` it returns
    the first occurrence it completes.  With a list (and a pattern of length
    at least 2), the last pattern entry is read and not placed: each occurrence of pattern[:-1] appends the open
    interval between its values nearest below and above pattern[-1]
    (±inf where there is none), the search goes on at its last entry, and
    None is returned once every candidate is spent (`completing_intervals`).

    Backtracking over positions in increasing order.  If the entries placed
    so far are order-isomorphic to their pattern entries, a candidate for
    pattern[k] keeps that iff it lies strictly between the placed values
    nearest below and above pattern[k], so each candidate costs one
    comparison against a cached neighbour-bound table.

    Failed-candidate rule: once entry k's subtree has failed (or, listing
    intervals, been listed) with value f under the current placement of
    entries 0..k-1, a later candidate for k sits at a later position, so it
    can only finish an occurrence the failed one could not, or list an
    interval not inside one already listed, if its value reads better to
    the later entries.  An entry read only as a lower bound keeps only candidates
    below f, one read only as an upper bound only candidates above f, one
    read both ways keeps all, and an unread entry backtracks at once.  No
    occurrence is lost, so the result is still the lexicographically least
    one, and every skipped interval lies inside one already listed.
    """
    n = len(seq)
    lo, hi, roles = _neighbour_bounds(pattern, pinned)
    free = len(lo) - (intervals is not None)
    # entry k is placed before position last + k, where the later entries
    # still fit
    last = n - free - pinned + 1
    if last < 1:
        return None
    m = len(pattern)
    # vals[j] is the value placed for pattern[j]; slots m, m+1 bound what no
    # placed entry bounds
    vals = [0] * m + [-math.inf, bound]
    if pinned:
        vals[m - 1] = seq[-1]
    chosen = [0] * free
    # retry: level k is re-entered after the subtree of its candidate vals[k]
    # failed.  Each later candidate reads better than the last failed one, so
    # the last failed value is also the tightest.
    retry = False
    k = start = 0
    while True:
        while k < free:
            a, b = vals[lo[k]], vals[hi[k]]
            stop = last + k
            if retry:
                role = roles[k]  # 1 lower bound, 2 upper bound, 3 both, 0 unread
                if role == 1:
                    b = vals[k]
                elif role == 2:
                    a = vals[k]
                elif not role:
                    stop = start
            for pos in range(start, stop):
                v = seq[pos]
                if a < v < b:
                    break
            else:
                if k == 0:
                    return None
                k -= 1
                start = chosen[k] + 1
                retry = True
                continue
            chosen[k] = pos
            vals[k] = v
            k += 1
            start = pos + 1
            retry = False
        if intervals is None:
            return chosen
        # an occurrence of the prefix: list its interval, then retry its
        # last entry (start is already past it)
        intervals.append((vals[lo[free]], vals[hi[free]]))
        k -= 1
        retry = True


def contains(
    pattern: Permutation | Sequence[int], host: Permutation | Sequence[int]
) -> Embedding | None:
    """Lexicographically least embedding of `pattern` into `host`, or None.

    Both may be any sequence of distinct values, such as a color class: only
    values are compared.  Backtracking over host positions in increasing
    order; a candidate for pattern entry k is kept iff its value lies strictly
    between the chosen values of the earlier pattern entries nearest below and
    above pattern[k] (neighbour bounds, one cached table per pattern), and
    `_first_occurrence`'s failed-candidate rule skips the later candidates
    that could finish no occurrence the failed one could not.

    >>> contains(Permutation.from_text("132"), Permutation.from_text("2413"))
    Embedding(positions=(1, 2, 4))
    >>> contains(Permutation.from_text("1324"), (20, 40, 10, 30)) is None
    True
    """
    seq = host.values if isinstance(host, Permutation) else host
    chosen = _first_occurrence(tuple(pattern), seq, False)
    return None if chosen is None else Embedding(tuple(q + 1 for q in chosen))


def run_drop_shape(image: Sequence[int]) -> tuple[int, int, int] | None:
    """(a, k, b) if `image` is I_a ⊕ D_k ⊕ I_b: the run 1..a, the decreasing
    block a+k..a+1, then the run a+k+1..m (the identity is (m, 0, 0));
    None otherwise.

    >>> run_drop_shape((1, 4, 3, 2)), run_drop_shape((1, 3, 2, 4)), run_drop_shape((2, 1, 4, 3))
    ((1, 3, 0), (1, 2, 1), None)
    """
    m = len(image)
    a = 0
    while a < m and image[a] == a + 1:
        a += 1
    if a == m:
        return m, 0, 0
    top = image[a]
    if tuple(image[a:]) != (*range(top, a, -1), *range(top + 1, m + 1)):
        return None
    return a, top - a, m - top


@lru_cache(maxsize=None)
def _sweep_shape(pattern: tuple[int, ...]) -> tuple[int, int, int, bool, bool] | None:
    """(a, k, b, reversed, negated) if reversing and/or complementing
    `pattern` gives I_a ⊕ D_k (b = 0) or I_a ⊕ D_2 ⊕ I_b (a, b >= 1); an
    image with b = 0 wins, then the one with the longest leading run.  None
    for every other pattern.

    >>> _sweep_shape((1, 4, 3, 2)), _sweep_shape((3, 2, 1))
    ((1, 3, 0, False, False), (3, 0, 0, False, True))
    >>> _sweep_shape((1, 3, 2, 4)), _sweep_shape((1, 4, 3, 2, 5))
    ((1, 2, 1, False, False), None)
    """
    m = len(pattern)
    best = None
    for rev in (False, True):
        for neg in (False, True):
            image = pattern[::-1] if rev else pattern
            if neg:
                image = tuple(m + 1 - v for v in image)
            shape = run_drop_shape(image)
            if shape is None or (shape[2] and (shape[0] == 0 or shape[1] != 2)):
                continue  # a trailing run is swept only as I_a ⊕ D_2 ⊕ I_b, a >= 1
            if best is None or (not shape[2], shape[0]) > (not best[2], best[0]):
                best = (*shape, rev, neg)
    return best


def _run_drop_splits(a: int, k: int, seq: Sequence[int]) -> Iterator[tuple[float, float]]:
    """(top, bottom) at each split t, from len(seq) - 1 down to 0, where
    bottom, the greatest bottom (last value) of a decreasing k-run inside
    seq[t:] (k >= 1), has just risen and lies above top, the least top (last
    value) of an increasing a-run inside seq[:t].  seq contains I_a ⊕ D_k iff
    there is such a split.  The top only grows as t falls, so a value lies
    strictly between top and bottom at some split iff it does at one of those
    given.  `avoids` asks for the first split (k >= 2); the avoider walk reads
    them all with k - 1 for a basis element I_a ⊕ D_k.

    The prefix side is one patience pass (a >= 1) over the tops
    T_1 < ... < T_a of seq[:t], one bisect per value as in `least_top`.  On
    the suffix side, with H_j(x) the greatest bottom of a decreasing j-run
    from x (H_1(x) = x), G_k(seq[t:]) is the greatest H_{k-1}(y) over the y
    in seq[t:] with a larger entry before them there: it grows by the
    entries seq[t] pops off a stack of seq[t+1:]'s left-to-right maxima,
    each popped once.  H_2(x), the greatest value below x right of x, is the
    previous greater entry of the inverse in value order, one monotone stack
    over 1..n; H_3 ... H_{k-1} (k >= 4) are prefix-maximum queries over the
    values below x on k - 3 Fenwick trees.  These arrays are indexed by
    value, so with k >= 3 seq is a permutation of 1..n.  k = 1 keeps the
    suffix maximum.

    >>> list(_run_drop_splits(1, 2, (2, 4, 3, 1)))
    [(2, 3)]
    """
    n, inf = len(seq), math.inf
    least, tops = [inf], [inf] * a  # least[t]: T_a(seq[:t])
    for v in seq:
        i = bisect_left(tops, v)
        if i < a:
            tops[i] = v
        least.append(tops[-1])
    if k >= 3:  # level[x]: H_2(x), then H_{k-1}(x) once x is swept
        where, level, below = [0] * (n + 1), [-inf] * (n + 1), []
        for t, v in enumerate(seq):
            where[v] = t
        for v in range(1, n + 1):
            while below and where[below[-1]] < where[v]:
                below.pop()
            if below:
                level[v] = below[-1]
            below.append(v)
    trees = [[-inf] * (n + 1) for _ in range(k - 3)]
    maxima, best = [], -inf
    for t in range(n - 1, -1, -1):
        x = g = seq[t]
        if k > 1:
            g = -inf
            for tree in trees:
                # add H_{j-1}(x), then ask for H_j(x) (a node already >= h
                # ends the update: later nodes cover its range)
                i, h = x, level[x]
                while i <= n and tree[i] < h:
                    tree[i] = h
                    i += i & -i
                i, h = x - 1, -inf
                while i:
                    if tree[i] > h:
                        h = tree[i]
                    i &= i - 1
                level[x] = h
            while maxima and maxima[-1] < x:
                y = maxima.pop()
                if k > 2:
                    y = level[y]
                if y > g:
                    g = y
            maxima.append(x)
        if g > best:
            best = g
            if least[t] < best:
                yield least[t], best


def _run_drop_run_found(a: int, b: int, seq: Sequence[int]) -> bool:
    """Does `seq`, a permutation of 1..n, contain I_a ⊕ D_2 ⊕ I_b
    (a, b >= 1)?

    It does iff some z has an earlier y with
    T_a(before y) < z < y < G_b(after z), where T_a is the least top of an
    increasing a-run and G_b the greatest bottom of an increasing b-run (the
    suffix maximum when b = 1).  The suffix side takes `b` right-to-left
    passes, the mirror of `_run_drop_splits`' prefix passes.  One
    left-to-right pass keeps the tops T_1 < ... < T_a as in patience
    sorting, writes T_a(before y) at leaf y of a min segment tree over
    values, and asks for each z whether the least leaf in (z, G_b(after z))
    lies below z.
    """
    n = len(seq)
    greatest = [math.inf] * (n + 1)
    for _ in range(b):
        row, cur = [0] * (n + 1), 0
        for t in range(n - 1, -1, -1):
            v = seq[t]
            if cur < v < greatest[t + 1]:
                cur = v
            row[t] = cur
        greatest = row
    size = n + 1
    tree = [math.inf] * (2 * size)  # leaf size + y: T_a(before y), inf if unpushed
    tops = [math.inf] * a  # tops[i] is T_{i+1}
    for t, z in enumerate(seq):
        lo, hi = z + 1 + size, greatest[t + 1] + size
        while lo < hi:
            if lo & 1:
                if tree[lo] < z:
                    return True
                lo += 1
            if hi & 1:
                hi -= 1
                if tree[hi] < z:
                    return True
            lo >>= 1
            hi >>= 1
        top, i = tops[-1], z + size
        while i and tree[i] > top:  # T_a only drops: an ancestor <= top ends it
            tree[i] = top
            i >>= 1
        i = bisect_left(tops, z)
        if i < a:
            tops[i] = z
    return False


def avoids(pattern: Permutation | Sequence[int], host: Permutation | Sequence[int]) -> bool:
    """Does `host` avoid `pattern`?  Both may be any sequences of distinct
    values, like `contains`, but the method is chosen from the pattern alone,
    on the host reversed and/or complemented as `_sweep_shape` says:

    - I_a and D_a (12, 21, 123, 321, 1234, 4321, ...) by `least_top`'s
      patience pass: the host avoids I_a iff T_a is inf;
    - a reverse and/or complement of I_a ⊕ D_k, k >= 2 (132, 213, 231, 312,
      and 1243, 1432, 2134, 2341, 3214, 3421, 4123, 4312 of order 4) by
      `_run_drop_splits`: one patience pass and stacks, O(n log a), for
      k <= 3, and k - 3 Fenwick trees on top for k >= 4;
    - a reverse and/or complement of I_a ⊕ D_2 ⊕ I_b with a, b >= 1 (1324
      and 4231 of order 4) by `_run_drop_run_found`;
    - every other pattern by the backtracking of `contains`, with no
      embedding built.

    This is the only code that maps a host for the sweeps.  It ranks a host
    that is no `Permutation` onto 1..n only where a sweep reads values as
    indices (the stack over 1..n and the trees for k >= 3, the tree for
    b >= 1), then reverses it and complements by n + 1 - v, which reverses
    the order of any values.

    >>> avoids((1, 4, 3, 2), (2, 3, 1, 5, 4)), avoids((1, 3, 2, 4), (20, 40, 10, 30))
    (True, True)
    >>> avoids((4, 2, 3, 1), (-1, -5, -3, -9))
    False
    """
    seq = host.values if isinstance(host, Permutation) else host
    pattern = tuple(pattern)
    shape = _sweep_shape(pattern)
    if shape is None:
        return _first_occurrence(pattern, seq, False) is None
    a, k, b, rev, neg = shape
    if (k >= 3 or b) and not isinstance(host, Permutation):
        rank = {v: r for r, v in enumerate(sorted(seq), 1)}
        seq = [rank[v] for v in seq]
    if rev:
        seq = seq[::-1]
    if neg:
        top = len(seq) + 1
        seq = [top - v for v in seq]
    if b:
        return not _run_drop_run_found(a, b, seq)
    if not k:
        return least_top(range(1, a + 1), seq) == math.inf
    return next(_run_drop_splits(a, k, seq), None) is None


def ends_with_occurrence(pattern: Sequence[int], seq: Sequence[int]) -> bool:
    """Does `seq` contain `pattern` in an occurrence that uses seq's last entry?

    Both are plain sequences of distinct values.  Only such occurrences can be
    new when an element joins a sequence that avoids the pattern.  Backtracks
    like `contains` with the last pattern entry pinned to seq's last entry, so
    the neighbour bounds of every candidate already include that entry.  It
    asks one candidate at a time, for `greedy_colors` and the merge search.

    >>> ends_with_occurrence((1, 3, 2), (2, 4, 1, 3))
    True
    >>> ends_with_occurrence((1, 3, 2), (2, 4, 3, 1))
    False
    """
    return not pattern or _first_occurrence(tuple(pattern), seq, True) is not None


def completing_intervals(pattern: Sequence[int], seq: Sequence[int]) -> list[tuple[float, float]]:
    """Open intervals (lo, hi) such that `seq + (v,)`, for any v not in seq,
    has an occurrence of `pattern` through v iff lo < v < hi for one of them.

    Every occurrence of pattern[:-1] in seq gives the values of its entries
    nearest below and above pattern[-1] (±inf where there is none), so the
    list answers `ends_with_occurrence` for every candidate last value from
    one search (the avoider walk's, per parent and basis element; the
    oracle's first step's, per parent class).  The search is
    `_first_occurrence` with its interval-listing completion rule: the one
    backtracking over the full pattern's neighbour bounds, in which the last
    entry reads the prefix like one more later entry.

    >>> completing_intervals((1, 3, 2), (2, 4, 1, 3))
    [(2, 4), (1, 3)]
    >>> completing_intervals((2, 1), ()), completing_intervals((1,), ())
    ([], [(-inf, inf)])
    """
    if len(pattern) < 2:
        return [(-math.inf, math.inf)]
    out: list[tuple[float, float]] = []
    _first_occurrence(tuple(pattern), seq, False, math.inf, out)
    return out


def least_top(pattern: Sequence[int], seq: Sequence[int], bound: float = math.inf) -> float:
    """The least maximum of an occurrence of `pattern` in `seq` with every
    value below `bound`, or `bound` if there is none; -inf for the empty
    pattern.

    An increasing pattern I_a (1, 12, 123, ...) takes one patience pass: its
    least top is T_a, the least top of an increasing a-run, kept with the
    lower tops T_1 < ... < T_a as in patience sorting, over the values below
    `bound`; `avoids` decides I_a and D_a with the same pass.  Any other
    pattern backtracks: the search finds the lexicographically least
    occurrence, not the lowest, so it is repeated below the top it last found
    until it fails; each repeat lowers the top.

    >>> least_top((1, 2), (3, 4, 1, 2)), least_top((1, 2), (3, 4, 1, 2), bound=2)
    (2, 2)
    >>> least_top((2, 1), (1, 3, 2)), least_top((2, 1), (1, 2)), least_top((), (1,))
    (3, inf, -inf)
    """
    pattern = tuple(pattern)
    if not pattern:
        return -math.inf
    if pattern == tuple(range(1, len(pattern) + 1)):
        # a value at or above bound moves no top: bisect places it past them
        # all, or on a top that already equals bound
        tops = [bound] * len(pattern)
        for v in seq:
            i = bisect_left(tops, v)
            if i < len(tops):
                tops[i] = v
        return tops[-1]
    k = pattern.index(len(pattern))  # the entry that is the top
    top = bound
    while (chosen := _first_occurrence(pattern, seq, False, top)) is not None:
        top = seq[chosen[k]]
    return top


def direct_sum(a: Permutation, b: Permutation) -> Permutation:
    """Concatenate with b's values shifted above a's.

    >>> direct_sum(Permutation.from_text("231"), Permutation.from_text("321")).text()
    '2 3 1 6 5 4'
    """
    m = len(a)
    return Permutation(a.values + tuple(v + m for v in b.values))


def skew_sum(a: Permutation, b: Permutation) -> Permutation:
    """Concatenate with a's values shifted above b's, in one pass."""
    return Permutation._trusted(tuple(v + len(b) for v in a.values) + b.values)


# a symmetry image of a permutation is one by construction: no sort check
def reverse(p: Permutation) -> Permutation:
    return Permutation._trusted(p.values[::-1])


def complement(p: Permutation) -> Permutation:
    top = len(p) + 1
    return Permutation._trusted(tuple(top - v for v in p.values))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p.values):
        inv[v - 1] = i + 1
    return Permutation._trusted(tuple(inv))


def reverse_complement(p: Permutation) -> Permutation:
    top = len(p) + 1
    return Permutation._trusted(tuple(top - v for v in reversed(p.values)))


SYMMETRIES = {
    "reverse": reverse,
    "complement": complement,
    "inverse": inverse,
    "reverse-complement": reverse_complement,
}


def inflate(skeleton: Permutation, parts: Sequence[Permutation]) -> Permutation:
    """The inflation skeleton[parts[0], ..., parts[-1]].

    >>> inflate(Permutation.from_text("231"),
    ...         [Permutation.from_text(t) for t in ("213", "21", "12")]).text()
    '4 3 5 7 6 1 2'
    """
    if len(parts) != len(skeleton):
        raise ValueError(f"need {len(skeleton)} parts, got {len(parts)}")
    if any(len(q) == 0 for q in parts):
        raise ValueError("inflation parts must be nonempty")
    # Block i is shifted above every block with a smaller skeleton value.
    order = sorted(range(len(skeleton)), key=lambda i: skeleton.values[i])
    offset = {}
    total = 0
    for i in order:
        offset[i] = total
        total += len(parts[i])
    vals: list[int] = []
    for i in range(len(skeleton)):
        vals.extend(offset[i] + v for v in parts[i].values)
    return Permutation(tuple(vals))


def is_simple(p: Permutation) -> bool:
    """True iff p has no interval of length strictly between 1 and n.

    Quadratic scan over contiguous position windows, checking whether the
    values form a contiguous range.
    """
    n = len(p)
    v = p.values
    for i in range(n):
        lo = hi = v[i]
        for j in range(i + 1, n):
            lo = min(lo, v[j])
            hi = max(hi, v[j])
            if j - i + 1 < n and hi - lo == j - i:
                return False
    return True


def sum_splits(p: Permutation) -> tuple[int, ...]:
    """Every k, 0 < k < n, such that p[:k] is a permutation of 1..k: where one
    ⊕-component of p ends and the next begins, in one pass over the prefix
    maxima.  p is ⊕-decomposable iff it has a split, and ⊖-decomposable iff
    its complement has one.

    >>> sum_splits(Permutation.from_text("21354"))
    (2, 3)
    """
    prefix_maxima = accumulate(p.values[:-1], max)
    return tuple(k for k, top in enumerate(prefix_maxima, start=1) if top == k)


def sum_block(p: Permutation, i: int, j: int) -> Permutation:
    """p[i:j] reduced, for i < j each a split of p or an end (0 or n): the
    ⊕-sum of p's components between them.  Raises ValueError unless the
    slice holds the values i + 1..j, as every such slice does.

    >>> sum_block(Permutation.from_text("21354"), 2, 5).text()
    '1 3 2'
    """
    return Permutation(tuple(v - i for v in p.values[i:j]))


def lr_minima(p: Permutation) -> tuple[int, ...]:
    """1-based positions i where p(i) is smaller than everything before it.

    >>> lr_minima(Permutation.from_text("58641273"))
    (1, 4, 5)
    """
    out = []
    best = len(p) + 1
    for i, v in enumerate(p.values, start=1):
        if v < best:
            out.append(i)
            best = v
    return tuple(out)


def inflate_lr_minima(outer: Permutation, filler: Permutation) -> Permutation:
    """Inflate every LR-minimum of `outer` by `filler`, everything else by 1."""
    if len(filler) == 0:
        raise ValueError("filler must be nonempty")
    mins = set(lr_minima(outer))
    one = Permutation((1,))
    parts = [filler if i in mins else one for i in range(1, len(outer) + 1)]
    return inflate(outer, parts)


def all_perms(n: int) -> Iterator[Permutation]:
    """All permutations of order n, in lexicographic order."""
    for vals in permutations(range(1, n + 1)):
        yield Permutation(vals)


def avoider_walk(
    basis: Iterable[Permutation],
) -> Iterator[tuple[list[tuple[int, ...]], list[int], list[int]]]:
    """The generating tree of Av(basis), one triple (parents, lasts, starts)
    per order n from 1 up.  parents holds the members of order n - 1 as plain
    value tuples, in walk order; the first triple's one parent is ε, the
    root.  The children of parents[i] are given by their last values
    lasts[starts[i]:starts[i + 1]], in increasing order, so len(starts) is
    one more than len(parents) and starts[-1] is len(lasts).  The child
    q + last appends last to its parent q, shifting the values at or above it
    up (`avoider_members` builds them); its parent is it without its last
    entry, reduced.

    The basis is classified once per walk.  A parent's last values are read
    off it once per basis element, with no search per candidate, since only
    occurrences through the new entry can be new.  A basis element X⊕1 (last
    entry its maximum) allows the last values 1..t, t the least top of an X
    in the parent (`least_top`); X⊖1 allows g+1..n, g the greatest bottom of
    an X.  A basis element I_a ⊕ D_k with a >= 1 and k >= 2 (132, 1243,
    1432, ...) forbids the last values v with top < v - 0.5 < bottom at a
    split of `_run_drop_splits(a, k - 1, parent)`, the sweep `avoids` uses:
    top is the least top of an increasing a-run before the split, bottom the
    greatest bottom of a decreasing (k - 1)-run after it.  Its complement
    (312, 3421, 4123, ...) does the same on the complemented parent n - v.
    Every other basis element forbids the v with lo < v - 0.5 < hi
    for one of its `completing_intervals` (lo, hi) on the parent.

    The members of order n, the next triple's parents, are built only when
    the walk is resumed for order n + 1, and no other level is kept.  The
    walk yields nothing if ε is in the basis, and ends after the first order
    with no members: every later one is empty too, because the class is
    hereditary.

    >>> walk = avoider_walk({Permutation((1, 3, 2))})
    >>> next(walk), next(walk)
    (([()], [1], [0, 1]), ([(1,)], [1, 2], [0, 2]))
    >>> parents, lasts, starts = next(walk)  # (2, 1)'s children end in 1, 2, 3
    >>> parents, lasts, starts
    ([(2, 1), (1, 2)], [1, 2, 3, 1, 3], [0, 3, 5])
    >>> avoider_members(parents, lasts, starts)
    [(3, 2, 1), (3, 1, 2), (2, 1, 3), (2, 3, 1), (1, 2, 3)]
    """
    # X⊖1's greatest bottom is n minus the least top of X's complement in the
    # complemented parent n - v; b = 1 is X⊕1 with X = ε, whose top -inf
    # allows none.  drops holds (complemented, a, k) for I_a ⊕ D_k and its
    # complement; a shape with a trailing run (1324 = I_1 ⊕ D_2 ⊕ I_1) is no
    # forbidden interval.  A split's top < last - 0.5 < bottom forbids
    # [top + 1, bottom], and a rest element's completing interval (a, c),
    # a < last - 0.5 < c, forbids [a + 1, c]; both are marked in one mask.
    caps, floors, drops, rest = [], [], [], []
    for b in basis:
        m = len(b)
        if not m:
            return
        complemented = tuple(m + 1 - v for v in b.values)
        if b.values[-1] == m:
            caps.append(b.values[:-1])
        elif b.values[-1] == 1:
            floors.append(complemented[:-1])
        elif (shape := run_drop_shape(b.values)) and not shape[2]:
            drops.append((False, *shape[:2]))
        elif (shape := run_drop_shape(complemented)) and not shape[2]:
            drops.append((True, *shape[:2]))
        else:
            rest.append(b.values)
    complements = floors or any(neg for neg, _, _ in drops)
    parents: list[tuple[int, ...]] = [()]
    n = 1
    while parents:
        lasts: list[int] = []
        starts = []
        for q in parents:
            starts.append(len(lasts))
            lo, hi = 1, n
            for x in caps:
                hi = min(hi, least_top(x, q))
            if complements:
                complement_q = [n - v for v in q]  # a permutation of 1..n-1
            for x in floors:
                lo = max(lo, n + 1 - least_top(x, complement_q))
            if hi < lo:
                continue
            allowed = range(lo, hi + 1)
            if drops or rest:
                free = [True] * (n + 1)
                for neg, a, k in drops:
                    # the complemented child appends n + 1 - last
                    for top, bottom in _run_drop_splits(a, k - 1, complement_q if neg else q):
                        low, high = (n + 1 - bottom, n - top) if neg else (top + 1, bottom)
                        free[low:high + 1] = [False] * (high + 1 - low)
                for b in rest:
                    for a, c in completing_intervals(b, q):  # low > high marks none
                        low, high = max(a + 1, lo), min(c, hi)
                        free[low:high + 1] = [False] * (high + 1 - low)
                allowed = compress(allowed, free[lo:hi + 1])
            lasts.extend(allowed)
        starts.append(len(lasts))
        yield parents, lasts, starts
        parents = avoider_members(parents, lasts, starts)
        n += 1


def avoider_members(
    parents: Sequence[tuple[int, ...]], lasts: Sequence[int], starts: Sequence[int]
) -> list[tuple[int, ...]]:
    """The members an `avoider_walk` triple describes, as plain value tuples:
    the children of each parent in turn, in increasing last value, each its
    parent with the values at or above its last value shifted up, then that
    value.  `avoider_members((q,), lasts, (lo, hi))` builds one parent's
    children.

    >>> avoider_members([(2, 1), (1, 2)], [1, 2, 3, 1, 3], [0, 3, 5])[:3]
    [(3, 2, 1), (3, 1, 2), (2, 1, 3)]
    """
    return [
        (*[v + (v >= last) for v in q], last)
        for q, lo, hi in zip(parents, starts, starts[1:])
        for last in lasts[lo:hi]
    ]


def enumerate_avoiders(basis: Iterable[Permutation], n: int) -> Iterator[Permutation]:
    """All members of Av(basis) of order exactly n, in lexicographic order.

    Generated by appending each last value 1..n (values at or above it shift
    up) to every avoider of order n-1; hereditariness makes this complete and
    free of duplicates.  Which last values a basis element allows is
    `avoider_walk`'s rule, written there.  Each call walks orders 1..n of
    one `avoider_walk` (no recursion, no cache between calls), builds only
    the members of order n from its last triple, sorts them, and wraps only
    the members it yields in `Permutation`, without the sort check.

    >>> [p.text() for p in enumerate_avoiders({Permutation((1, 3, 2))}, 3)]
    ['1 2 3', '2 1 3', '2 3 1', '3 1 2', '3 2 1']
    >>> [p.text() for p in enumerate_avoiders({Permutation((1, 3, 2))}, 0)]
    ['ε']
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    walk = avoider_walk(basis)
    if n == 0:  # ε, the root, is a member iff the walk yields at all
        level = [()] if next(walk, None) else []
    else:
        level = avoider_members(*next(islice(walk, n - 1, None), ((), (), ())))
    level.sort()
    yield from map(Permutation._trusted, level)


def count_avoiders(basis: Iterable[Permutation], n: int) -> int:
    """|Av_n(basis)|: the number of order-n children in the walk's triple for
    order n, len(lasts), none of them built.

    >>> [count_avoiders({Permutation((1, 3, 2))}, n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    walk = avoider_walk(basis)
    if n == 0:
        return sum(1 for _ in islice(walk, 1))
    return len(next(islice(walk, n - 1, None), ((), (), ()))[1])


def avoiders_up_to(basis: Iterable[Permutation], n_max: int) -> Iterator[Permutation]:
    """All members of Av(basis) of order 0..n_max, in size-then-lex order,
    from one walk: each order below n_max is the parents of the next triple,
    and order n_max is built from its own triple; each is sorted as it is
    emitted.

    >>> [p.text() for p in avoiders_up_to({Permutation((2, 1))}, 2)]
    ['ε', '1', '1 2']
    """
    if n_max < 0:
        return
    for n, (parents, lasts, starts) in enumerate(avoider_walk(basis), 1):
        yield from map(Permutation._trusted, sorted(parents))  # order n - 1
        if n == n_max:
            yield from map(Permutation._trusted, sorted(avoider_members(parents, lasts, starts)))
        if n >= n_max:
            return

"""Ordered perfect matchings (chord diagrams) and the m(π) permutation encoding.

A matching is a set of arcs over 2m endpoints on a line.  Construction accepts
arbitrary numeric coordinates (the witness constructions place endpoints at
positions like x-0.5 or i+0.4) and immediately renormalizes to 1..2m.  The
canonical form is the normalized arc list sorted by left endpoint; isomorphism
is equality of canonical forms.

Text format: arcs as "l-r" pairs separated by spaces, e.g. "1-5 2-4 3-6".
Input may be unnormalized; output is always normalized and sorted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import PreconditionError, VerificationError
from .perms import Permutation

Arc = tuple[int, int]


@dataclass(frozen=True)
class Matching:
    """Normalized matching: arcs on the point set 1..2m, sorted by left endpoint."""

    arcs: tuple[Arc, ...]

    def __post_init__(self):
        arcs = tuple(tuple(arc) for arc in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        endpoints = sorted(e for arc in arcs for e in arc)
        if endpoints != list(range(1, 2 * len(arcs) + 1)):
            raise ValueError(f"endpoints must be exactly 1..{2 * len(arcs)}: {arcs!r}")
        if any(a >= b for a, b in arcs):
            raise ValueError("each arc needs left < right")
        if list(arcs) != sorted(arcs):
            raise ValueError("arcs must be sorted by left endpoint")

    @classmethod
    def _trusted(cls, arcs: tuple[Arc, ...]) -> "Matching":
        """A matching from normalized arc tuples its builder sorted by left
        endpoint by construction: no copy and no validation.  Equality and
        hashing are the dataclass's."""
        m = object.__new__(cls)
        object.__setattr__(m, "arcs", arcs)
        return m

    def __len__(self) -> int:
        return len(self.arcs)

    def text(self) -> str:
        return " ".join(f"{a}-{b}" for a, b in self.arcs)

    def __repr__(self) -> str:
        return f"Matching({self.text()!r})"

    @staticmethod
    def from_arcs(pairs: Iterable[tuple[float, float]]) -> "Matching":
        """Build from arcs with arbitrary distinct finite coordinates (a NaN
        would make the result depend on the order of the arcs)."""
        raw = [tuple(sorted(pair)) for pair in pairs]
        coords = [e for arc in raw for e in arc]
        if not all(map(math.isfinite, coords)):
            raise ValueError(f"endpoint coordinates must be finite: {raw!r}")
        coords.sort()
        if len(set(coords)) != len(coords):
            raise ValueError(f"duplicate endpoint coordinates in {raw!r}")
        rank = {e: i + 1 for i, e in enumerate(coords)}
        return Matching(tuple(sorted((rank[a], rank[b]) for a, b in raw)))

    @staticmethod
    def from_text(text: str) -> "Matching":
        text = text.strip()
        if not text:
            return Matching(())
        pairs = []
        for tok in text.split():
            left, sep, right = tok.partition("-")
            if not sep:
                raise ValueError(f"bad arc token {tok!r}")
            pairs.append((float(left), float(right)))
        return Matching.from_arcs(pairs)


def crosses(x: Arc, y: Arc) -> bool:
    a, b = x
    c, d = y
    return (a < c < b < d) or (c < a < d < b)


def m_of(p: Permutation) -> Matching:
    """The permutation matching with one arc (-p(i), i) per element, normalized.

    >>> m_of(Permutation.from_text("231")).text()
    '1-5 2-4 3-6'
    """
    n = len(p)
    return Matching(tuple(sorted((n + 1 - v, n + i) for i, v in enumerate(p.values, 1))))


def perm_of(m: Matching) -> Permutation | None:
    """Inverse of m_of, or None if some left endpoint follows a right endpoint."""
    n = len(m)
    if any(a > n or b <= n for a, b in m.arcs):
        return None
    vals = [0] * n
    for a, b in m.arcs:
        vals[b - n - 1] = n + 1 - a
    return Permutation(tuple(vals))


@lru_cache(maxsize=None)
def _right_end_bounds(pattern: tuple[Arc, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """For each pattern arc t, the earlier arcs whose right ends are nearest
    below and above its left end, then below and above its right end
    (k and k+1 stand for none, k = number of arcs)."""
    k = len(pattern)
    out = []
    for t, arc in enumerate(pattern):
        row = []
        for end in arc:
            below = [j for j in range(t) if pattern[j][1] < end]
            above = [j for j in range(t) if pattern[j][1] > end]
            row.append(max(below, key=lambda j: pattern[j][1], default=k))
            row.append(min(above, key=lambda j: pattern[j][1], default=k + 1))
        out.append(tuple(row))
    return tuple(out)


def matching_contains(pattern: Matching, host: Matching | Sequence[Arc]) -> bool:
    """True iff some |pattern|-subset of the host's arcs is isomorphic to pattern.

    The host may be any arc sequence sorted by left endpoint, such as a subset
    of a matching's arcs: only endpoints are compared, so it need not be
    normalized.  The method is chosen from the pattern alone:

    - k >= 2 pairwise crossing arcs, m(k…1) = ((1, k+1), …, (k, 2k)), by
      the sweep `_crossing_chain_found`;
    - every other pattern, the empty and the single arc included, by the
      backtracking `_neighbour_bound_search`.
    """
    ha = host.arcs if isinstance(host, Matching) else host
    k, q = len(pattern.arcs), len(ha)
    if k > q:
        return False
    if k >= 2 and pattern.arcs == tuple((i, i + k) for i in range(1, k + 1)):
        return _crossing_chain_found(k, ha)
    return _neighbour_bound_search(pattern.arcs, ha)


def _neighbour_bound_search(pattern: tuple[Arc, ...], ha: Sequence[Arc]) -> bool:
    """Backtracking over host arcs in left-endpoint order, for any pattern.

    An arc chosen after arc x relates to x only through where x's right end
    falls against its two ends, so a candidate is kept iff each of its ends
    lies strictly between the chosen right ends nearest below and above the
    pattern's (neighbour bounds, one cached table per pattern).
    """
    k, q = len(pattern), len(ha)
    bounds = _right_end_bounds(pattern)
    # rights[j] is the right end chosen for pattern arc j; slots k, k+1 bound nothing
    rights = [0] * k + [float("-inf"), float("inf")]
    chosen = [0] * k
    t = start = 0
    while t < k:
        llo, lhi, rlo, rhi = bounds[t]
        a, b, c, d = rights[llo], rights[lhi], rights[rlo], rights[rhi]
        for idx in range(start, q - k + t + 1):
            left, right = ha[idx]
            if a < left < b and c < right < d:
                break
        else:
            if t == 0:
                return False
            t -= 1
            start = chosen[t] + 1
            continue
        chosen[t] = idx
        rights[t] = right
        t += 1
        start = idx + 1
    return True


def _crossing_chain_found(k: int, arcs: Sequence[Arc]) -> bool:
    """Do k >= 2 of the arcs, sorted by left endpoint, pairwise cross?

    They do iff l_1 < … < l_k < r_1 < … < r_k.  Visit the arcs by left end;
    best_j(a), the greatest r_1 of a j-chain with increasing lefts and rights
    that ends at arc a, is a prefix-maximum over the right ends below r_a in
    the Fenwick tree of best_{j-1}, indexed by right-end rank: k - 1 trees.
    Only r_1 and the last left end meet in l_k < r_1, so the greatest r_1
    loses nothing, and a chain with best_j(a) <= l_a is dead, since every
    later arc starts to the right of l_a.  A k-crossing exists iff
    best_k(a) > l_a for some a.
    """
    q, inf = len(arcs), math.inf
    rank = {r: i for i, r in enumerate(sorted(r for _, r in arcs), 1)}
    trees = [[-inf] * (q + 1) for _ in range(k - 1)]
    for left, right in arcs:
        h, r = right, rank[right]
        for tree in trees:
            # add the live (j-1)-chain ending here, then ask for a j-chain
            # (a node already >= h ends the update: later nodes cover its range)
            i = r
            while i <= q and tree[i] < h:
                tree[i] = h
                i += i & -i
            i, h = r - 1, -inf
            while i:
                if tree[i] > h:
                    h = tree[i]
                i &= i - 1
            if h <= left:
                break
        else:
            return True
    return False


class CrossingGraph:
    """Crossing graph of a matching's arcs, named by index.

    The arcs must be normalized, with endpoints exactly 1..2q sorted by left
    end as `Matching.arcs` are (else ValueError), so index order is left-end
    order.  Arc k's neighbours are the bits of the int nbr[k], about q²/8
    bytes at worst, set by one scan over the endpoints: at k's right end, the
    arcs live at its left end that have closed, and the later arcs still live.
    """

    def __init__(self, arcs: Sequence[Arc]):
        # end[e - 1] is k + 1 where arc k opens, ~k = -(k + 1) where it closes
        end, last = [0] * (2 * len(arcs)), 0
        for k, (a, b) in enumerate(arcs):
            if not last < a < b <= len(end) or end[a - 1] or end[b - 1]:
                raise ValueError(f"arc {k} {arcs[k]!r}: arcs must be normalized and sorted")
            end[a - 1], end[b - 1], last = k + 1, ~k, a
        self._scan(end)

    @classmethod
    def from_ends(cls, ends: Sequence[int]) -> "CrossingGraph":
        """The graph of an endpoint sequence in __init__'s encoding, arcs
        numbered in opening order, as `reduced_envelope_walk` returns; unchecked."""
        graph = cls.__new__(cls)
        graph._scan(ends)
        return graph

    def _scan(self, ends: Sequence[int]) -> None:
        self.nbr = nbr = [0] * (len(ends) // 2)
        opened, live = nbr[:], 0  # live: arcs opened and not yet closed
        for k in ends:
            if k > 0:
                opened[k - 1] = live
                live |= 1 << (k - 1)
            else:
                k = ~k
                live ^= 1 << k
                nbr[k] = (opened[k] & ~live) | (live >> (k + 1) << (k + 1))

    def components(self, subset: Iterable[int]) -> list[list[tuple[list[int], list[int]]]]:
        """Components of the graph induced on `subset`, by least arc, each as
        its list of BFS levels from that arc: level 0 is ([least arc], []),
        and every later level a nonempty pair (plus, minus) of arc-index lists
        in increasing order, appended as the BFS builds it.

        An arc is on the plus side iff the least arc of the previous level
        crossing it lies to its left, on the minus side iff to its right.
        """
        nbr, unseen, out = self.nbr, 0, []
        for i in subset:
            unseen |= 1 << i
        while unseen:
            frontier = unseen & -unseen
            unseen ^= frontier
            root = frontier.bit_length() - 1
            comp, reach = [([root], [])], nbr[root]
            while rest := reach & unseen:
                unseen ^= rest
                new, plus, minus, reach = rest, [], [], 0
                while rest:
                    bit = rest & -rest
                    j = bit.bit_length() - 1
                    (plus if nbr[j] & frontier & (bit - 1) else minus).append(j)
                    reach |= nbr[j]
                    rest ^= bit
                comp.append((plus, minus))
                frontier = new
            out.append(comp)
        return out


def arc_blocks(arcs: Sequence[Arc], subset: Iterable[int]) -> list[list[int]]:
    """⊎-blocks of the sub-matching on `subset` (increasing indices into arcs
    sorted by left endpoint), left to right, each sorted.  A block closes when
    the next left endpoint lies beyond every right endpoint seen so far."""
    out: list[list[int]] = []
    reach = 0
    for i in subset:
        a, b = arcs[i]
        if not out or a > reach:
            out.append([])
        out[-1].append(i)
        reach = max(reach, b)
    return out


def is_connected(m: Matching) -> bool:
    """Connectivity of the crossing (intersection) graph."""
    return len(CrossingGraph(m.arcs).components(range(len(m)))) <= 1


def mirror(m: Matching) -> Matching:
    """Reflect the endpoint line, so the last endpoint becomes the first.

    >>> mirror(Matching.from_text("1-2 3-6 4-5")).text()
    '1-4 2-3 5-6'
    """
    span = 2 * len(m) + 1
    return Matching.from_arcs([(span - b, span - a) for a, b in m.arcs])


def m_plus(m: Matching) -> Matching:
    """Shorten the arc at the leftmost endpoint: replace (1, x) by (x-0.5, x)."""
    if len(m) < 2 or len(arc_blocks(m.arcs, range(len(m)))) != 1:
        raise PreconditionError("need a ⊎-indecomposable matching with ≥ 2 arcs")
    (one, x), *rest = m.arcs
    if one != 1 or x <= 2:
        raise VerificationError("leftmost arc of an indecomposable matching is long")
    return Matching.from_arcs(rest + [(x - 0.5, x)])


def m_minus(m: Matching) -> Matching:
    """Shorten the arc at the rightmost endpoint: replace (y, 2m) by (y, y+0.5),
    which is m_plus seen in the mirror."""
    return mirror(m_plus(mirror(m)))


def weight(m: Matching) -> int:
    """Arc count plus the number of long arcs (arcs nesting some endpoint)."""
    return len(m) + sum(1 for a, b in m.arcs if b - a > 1)


"""Brute-force oracles used to derive expected values independently, seeded
host generators, the enumeration of the small matchings the tests sweep, and
three matching operations only tests use: ⊎, the ⊎-blocks by their
definition, and the BFS layers read off the library's crossing graph.

These deliberately do not reuse the library's search code: containment is an
exhaustive subsequence scan, avoider enumeration is a filter over all n!
permutations, matching avoidance is an exhaustive subset scan.  The hosts are
built from a seed and the Permutation constructor alone.
"""
from __future__ import annotations

from heapq import merge
from itertools import combinations, permutations
from typing import Iterator

from permsplit.errors import PreconditionError
from permsplit.matchings import Arc, CrossingGraph, Matching, crosses
from permsplit.perms import Permutation, complement, reverse

EMPTY_MATCHING = Matching(())


def all_matchings(q: int) -> Iterator[Matching]:
    """All matchings with exactly q arcs on 1..2q, in a fixed deterministic order."""

    def pair_up(points: tuple[int, ...]) -> Iterator[tuple[Arc, ...]]:
        if not points:
            yield ()
            return
        first = points[0]
        for i in range(1, len(points)):
            rest = points[1:i] + points[i + 1 :]
            for partial in pair_up(rest):
                yield ((first, points[i]),) + partial

    for arcs in pair_up(tuple(range(1, 2 * q + 1))):
        yield Matching(tuple(sorted(arcs)))


def matchings_up_to(q_max: int) -> Iterator[Matching]:
    """Every matching with at most q_max arcs, by arc count."""
    for q in range(q_max + 1):
        yield from all_matchings(q)


def uplus(a: Matching, b: Matching) -> Matching:
    """The left-to-right disjoint union a ⊎ b."""
    shift = 2 * len(a)
    return Matching(a.arcs + tuple((x + shift, y + shift) for x, y in b.arcs))


def blocks(m: Matching) -> tuple[Matching, ...]:
    """The unique maximal decomposition m = M1 ⊎ M2 ⊎ ... ⊎ Mk, left to right,
    by definition: a block ends at endpoint 2k when k arcs lie within 1..2k."""
    out, start = [], 0
    for k in range(1, len(m) + 1):
        if sum(b <= 2 * k for _, b in m.arcs) == k:
            out.append(Matching.from_arcs(arc for arc in m.arcs if 2 * start < arc[0] <= 2 * k))
            start = k
    return tuple(out)


def levels(m: Matching) -> tuple[tuple[Arc, ...], ...]:
    """BFS layers of the crossing graph from the arc at the leftmost endpoint,
    each in left-endpoint order."""
    comps = CrossingGraph(m.arcs).components(range(len(m)))
    if len(comps) > 1:
        raise PreconditionError("levels requires a connected matching")
    return tuple(tuple(m.arcs[i] for i in merge(*level)) for comp in comps for level in comp)


def order_isomorphic(seq_a, seq_b) -> bool:
    return len(seq_a) == len(seq_b) and all(
        (seq_a[i] < seq_a[j]) == (seq_b[i] < seq_b[j])
        for i in range(len(seq_a))
        for j in range(i + 1, len(seq_a))
    )


def brute_contains(pattern: Permutation, host: Permutation) -> bool:
    """Exhaustive scan over all |pattern|-subsequences of the host."""
    m = len(pattern)
    return any(
        order_isomorphic(pattern.values, [host.values[i] for i in pos])
        for pos in combinations(range(len(host)), m)
    )


def brute_least_embedding(pattern: Permutation, host: Permutation):
    m = len(pattern)
    for pos in combinations(range(len(host)), m):
        if order_isomorphic(pattern.values, [host.values[i] for i in pos]):
            return tuple(i + 1 for i in pos)
    return None


def brute_avoiders(basis, n: int) -> list[Permutation]:
    """Filter all n! permutations by the basis, lexicographic order."""
    out = []
    for vals in permutations(range(1, n + 1)):
        p = Permutation(vals)
        if not any(brute_contains(b, p) for b in basis):
            out.append(p)
    return out


def brute_matching_contains(pattern: Matching, host: Matching) -> bool:
    """Exhaustive scan over all |pattern|-subsets of the host's arcs."""
    k = len(pattern)
    for subset in combinations(host.arcs, k):
        endpoints = sorted(e for arc in subset for e in arc)
        rank = {e: i + 1 for i, e in enumerate(endpoints)}
        normal = tuple(sorted((rank[a], rank[b]) for a, b in subset))
        if normal == pattern.arcs:
            return True
    return False


def brute_components(arcs, subset) -> list[dict[int, tuple[int, int]]]:
    """Crossing-graph components of the arcs on `subset` (indices into arcs
    sorted by left endpoint), by least arc, each as {arc index: (BFS level,
    side)}: BFS over neighbour sets from `crosses` on all pairs.  A side is +1
    iff the least-left-end arc of the level above that crosses it starts to
    its left; roots get +1."""
    members = sorted(set(subset))
    nbr = {i: [j for j in members if crosses(arcs[i], arcs[j])] for i in members}
    out, seen = [], set()
    for root in members:
        if root in seen:
            continue
        level = {root: 0}
        queue = [root]
        for i in queue:
            for j in nbr[i]:
                if j not in level:
                    level[j] = level[i] + 1
                    queue.append(j)
        comp = {root: (0, 1)}
        for i in queue[1:]:
            nu = min((j for j in nbr[i] if level[j] == level[i] - 1), key=lambda j: arcs[j][0])
            comp[i] = (level[i], 1 if arcs[nu][0] < arcs[i][0] else -1)
        seen.update(comp)
        out.append(comp)
    return out


def dyck_321_avoider(n: int, rng) -> Permutation:
    """A 321-avoider of order n from a seeded Dyck path.

    The path is the rotation of a shuffled word of n up- and n+1 down-steps
    that starts after its first lowest prefix (cycle lemma), minus the final
    down-step.  A peak after u up-steps and d down-steps is the LR-maximum u
    at position d+1; the other values fill the gaps in increasing order.
    """
    word = [1] * n + [-1] * (n + 1)
    rng.shuffle(word)
    height = low = start = 0
    for i, step in enumerate(word):
        height += step
        if height < low:
            low, start = height, i + 1
    path = (word[start:] + word[:start])[:-1]
    vals = [0] * n
    up = down = 0
    for i, step in enumerate(path):
        if step == 1:
            up += 1
            if i + 1 < len(path) and path[i + 1] == -1:
                vals[down] = up
        else:
            down += 1
    rest = iter(sorted(set(range(1, n + 1)) - set(vals)))
    return Permutation(tuple(v if v else next(rest) for v in vals))


def seeded_hosts(seed: int, count: int, lo: int = 30, hi: int = 300) -> list[Permutation]:
    """`count` seeded hosts of order lo..hi (log-uniform), cycling through six
    families: 321-avoiders, their reverses, their complements, skew sums of
    321-avoiders of order 2-6, skew sums of increasing runs of order 1-8,
    and uniform random permutations."""
    import math
    import random

    rng = random.Random(seed)
    hosts = []
    for i in range(count):
        n = round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        family = i % 6
        if family < 3:
            p = dyck_321_avoider(n, rng)
            hosts.append((p, reverse(p), complement(p))[family])
        elif family < 5:
            pieces, size = [], 0
            while size < n:
                k = min(n - size, rng.randint(2, 6) if family == 3 else rng.randint(1, 8))
                pieces.append(dyck_321_avoider(k, rng).values if family == 3 else range(1, k + 1))
                size += k
            # the skew sum: each piece lies above all later ones
            vals = []
            for piece in pieces:
                size -= len(piece)
                vals.extend(v + size for v in piece)
            hosts.append(Permutation(tuple(vals)))
        else:
            hosts.append(Permutation(tuple(rng.sample(range(1, n + 1), n))))
    return hosts

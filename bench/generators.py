"""Seeded input generators for the benchmark.

Every generator depends only on its arguments (a `random.Random` seeded from
the workload seed, or nothing at all for the exhaustive families) and on the
`Permutation` / `Matching` constructors.  None of them calls the package's
search code, so an optimisation of `enumerate_avoiders` or `contains` cannot
change what the benchmark feeds it.  Generation always runs before timing.
"""
from __future__ import annotations

import math
import random
from itertools import combinations

from permsplit.matchings import Matching
from permsplit.perms import Permutation


def _occurs_through_last_max(pattern: tuple[int, ...], vals: tuple[int, ...], pos: int) -> bool:
    """Does `vals` contain `pattern` in an occurrence whose largest entry is
    vals[pos] (the maximum of vals)?  Plain subset scan."""
    m = len(pattern)
    top = pattern.index(m)
    others = [i for i in range(len(vals)) if i != pos]
    for subset in combinations(others, m - 1):
        picked = list(subset)
        picked.insert(top, pos)
        if picked != sorted(picked):
            continue
        seq = [vals[i] for i in picked]
        if all(
            (seq[a] < seq[b]) == (pattern[a] < pattern[b])
            for a in range(m)
            for b in range(a + 1, m)
        ):
            return True
    return False


def exhaustive_levels(pattern: Permutation, n: int) -> list[list[tuple[int, ...]]]:
    """Every avoider of `pattern` of each order 0..n, as value tuples, each
    level in lex order.

    Inserts the new maximum into each avoider of order k-1 and keeps the
    candidates with no occurrence through it; hereditariness makes this
    complete, and only occurrences using the new maximum can be new.
    """
    levels: list[list[tuple[int, ...]]] = [[()]]
    for k in range(1, n + 1):
        nxt = []
        for q in levels[-1]:
            for idx in range(k):
                cand = q[:idx] + (k,) + q[idx:]
                if not _occurs_through_last_max(pattern.values, cand, idx):
                    nxt.append(cand)
        levels.append(sorted(nxt))
    return levels


def exhaustive_class(pattern: Permutation, n: int) -> list[tuple[int, ...]]:
    """Every avoider of `pattern` of order n, as value tuples, in lex order."""
    return exhaustive_levels(pattern, n)[n]


def skew_sum_of(pieces: list[tuple[int, ...]]) -> Permutation:
    """pieces[0] ⊖ pieces[1] ⊖ ...: earlier pieces sit above later ones."""
    total = sum(len(p) for p in pieces)
    vals: list[int] = []
    for piece in pieces:
        total -= len(piece)
        vals.extend(v + total for v in piece)
    return Permutation(tuple(vals))


def random_dyck_path(n: int, rng: random.Random) -> str:
    """A uniform Dyck path of semilength n ('U'/'D'), by the cycle lemma.

    Of the 2n+1 rotations of a word with n U's and n+1 D's exactly one is a
    Dyck path followed by a final D; it is the rotation starting just after
    the first minimum of the prefix heights.
    """
    word = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(word)
    height, low, start = 0, 0, 0
    for i, step in enumerate(word):
        height += 1 if step == "U" else -1
        if height < low:
            low, start = height, i + 1
    rotated = word[start:] + word[:start]
    return "".join(rotated[:-1])


def dyck_to_321_avoider(path: str) -> Permutation:
    """The 321-avoider whose left-to-right maxima sit at the path's peaks.

    A peak after u up-steps and d down-steps is the LR-maximum of value u at
    position d+1; the remaining values fill the remaining positions in
    increasing order.  This is a bijection onto Av_n(321).
    """
    n = path.count("U")
    vals = [0] * n
    up = down = 0
    for i, step in enumerate(path):
        if step == "U":
            up += 1
            if i + 1 < len(path) and path[i + 1] == "D":
                vals[down] = up
        else:
            down += 1
    rest = iter(sorted(set(range(1, n + 1)) - set(vals)))
    return Permutation(tuple(v if v else next(rest) for v in vals))


def random_321_avoider(n: int, rng: random.Random) -> Permutation:
    return dyck_to_321_avoider(random_dyck_path(n, rng))


GOLDEN = (math.sqrt(5) - 1) / 2


def stratified_size(stratum: int, strata: int, draw: int, lo: int, hi: int) -> int:
    """A size in stratum `stratum` of `strata` equal slices of [lo, hi] on a
    log scale; the position inside the slice is the `draw`-th term of the
    golden-ratio sequence, so that distinct draws spread over the slice and
    the sizes depend on no seed."""
    offset = (draw + 1) * GOLDEN % 1.0
    span = math.log(hi) - math.log(lo)
    return round(math.exp(math.log(lo) + span * (stratum + offset) / strata))


def crossing_graph(arcs: tuple[tuple[int, int], ...]) -> list[set[int]]:
    nbr: list[set[int]] = [set() for _ in arcs]
    for i, j in combinations(range(len(arcs)), 2):
        (a, b), (c, d) = arcs[i], arcs[j]
        if a < c < b < d or c < a < d < b:
            nbr[i].add(j)
            nbr[j].add(i)
    return nbr


def has_crossing_clique(arcs: tuple[tuple[int, int], ...], size: int) -> bool:
    """Are some `size` arcs pairwise crossing?  Subset scan of the crossing graph."""
    nbr = crossing_graph(arcs)
    return any(
        all(j in nbr[i] for i, j in combinations(subset, 2))
        for subset in combinations(range(len(arcs)), size)
    )


def all_arc_sets(q: int) -> list[tuple[tuple[int, int], ...]]:
    """Every perfect matching of 1..2q as a sorted arc tuple."""

    def pair_up(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        first = points[0]
        for i in range(1, len(points)):
            for rest in pair_up(points[1:i] + points[i + 1 :]):
                yield ((first, points[i]),) + rest

    return [tuple(sorted(arcs)) for arcs in pair_up(tuple(range(1, 2 * q + 1)))]


def random_arc_set(q: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """A uniform perfect matching of 1..2q."""
    points = list(range(1, 2 * q + 1))
    rng.shuffle(points)
    return tuple(sorted(tuple(sorted(points[i : i + 2])) for i in range(0, 2 * q, 2)))


def clique_free_matchings(q: int, clique: int) -> list[Matching]:
    """Every q-arc matching with no `clique` pairwise crossing arcs."""
    return [Matching(arcs) for arcs in all_arc_sets(q) if not has_crossing_clique(arcs, clique)]


def sampled_clique_free_matchings(
    count: int, sizes: tuple[int, ...], clique: int, rng: random.Random
) -> list[Matching]:
    """`count` uniform samples, by rejection, of matchings with no `clique`
    pairwise crossing arcs; arc counts rotate through `sizes`."""
    out = []
    while len(out) < count:
        arcs = random_arc_set(sizes[len(out) % len(sizes)], rng)
        if not has_crossing_clique(arcs, clique):
            out.append(Matching(arcs))
    return out


# j -> i*j mod 9 permutes 1..8 when i is prime to 9
_PROBE_HOSTS = tuple(tuple(i * j % 9 for j in range(1, 9)) for i in (2, 7))


def reference_kernel() -> int:
    """A fixed piece of pure-Python permutation work that shares no code with
    the package: the subset scan above, over fixed hosts.  Its time tracks the
    speed the interpreter gets from the machine at that moment."""
    found = 0
    for host in _PROBE_HOSTS:
        for pos in range(len(host)):
            found += _occurs_through_last_max((1, 3, 2, 4), host, pos)
    return found

"""Coloring algorithms that produce splitting certificates.

A certificate assigns every element of a permutation (or every arc of a
matching) to one part of a splitting; a certificate is valid when each color
class avoids its part's pattern.  Certificates serialize as JSON lines:
{"subject": "...", "parts": ["1 3 2", "2 1 3"], "colors": [0, 1, 0]}.

The matching splitter works with palettes structured as whole copies of a base
part multiset; the returned part list is the flattened multiset of the copies
actually allocated, never the worst-case bound.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable

from .envelope import reduced_envelope_map
from .errors import PreconditionError, VerificationError
from .matchings import (
    Arc,
    CrossingGraph,
    Matching,
    arc_blocks,
    m_minus,
    m_of,
    m_plus,
    matching_contains,
    perm_of,
    weight,
)
from .perms import (
    Permutation,
    all_perms,
    avoids,
    decreasing,
    direct_sum,
    ends_with_occurrence,
    least_top,
    run_drop_shape,
    sum_splits,
)


@dataclass(frozen=True)
class SplittingSpec:
    """Multiset of part patterns: ((pattern, multiplicity), ...)."""

    parts: tuple[tuple[Permutation, int], ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a splitting needs at least one part")
        if any(len(p) == 0 or k <= 0 for p, k in self.parts):
            raise ValueError("part patterns must be nonempty with multiplicity >= 1")

    @staticmethod
    def of(*patterns: Permutation) -> "SplittingSpec":
        return SplittingSpec(tuple((p, 1) for p in patterns))

    @cached_property
    def _flat(self) -> tuple[Permutation, ...]:
        return tuple(p for p, k in self.parts for _ in range(k))

    def flatten(self) -> tuple[Permutation, ...]:
        """The part list with each pattern repeated by its multiplicity,
        built once per spec."""
        return self._flat

    def text(self) -> str:
        return ",".join(
            (f"{k}*{p.text()}" if k > 1 else p.text()) for p, k in self.parts
        )


@dataclass(frozen=True)
class ColoringCertificate:
    """An element→part (or arc→part) assignment against a flattened part list."""

    subject: Permutation | Matching
    parts: tuple[Permutation, ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.colors) != len(self.subject):
            raise ValueError("need one color per element/arc")
        if self.colors and (min(self.colors) < 0 or max(self.colors) >= len(self.parts)):
            raise ValueError("color index out of range of the part list")

    def colors_used(self) -> int:
        return len(set(self.colors))

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject.text(),
            "parts": list(_part_texts(self.parts)),
            "colors": list(self.colors),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ColoringCertificate":
        text = d["subject"]  # "" is the empty matching: the empty permutation is "ε"
        parse = Matching.from_text if "-" in text or not text else Permutation.from_text
        return ColoringCertificate(
            subject=parse(text),
            parts=tuple(Permutation.from_text(t) for t in d["parts"]),
            colors=tuple(d["colors"]),
        )


@lru_cache(maxsize=None)
def _part_texts(parts: tuple[Permutation, ...]) -> tuple[str, ...]:
    """The texts of a part list, rendered once per list: a plan's
    certificates all share one."""
    return tuple(p.text() for p in parts)


def greedy_three_sum(
    alpha: Permutation, beta: Permutation, gamma: Permutation, p: Permutation
) -> ColoringCertificate:
    """Two-part certificate over {Av(α⊕β), Av(β⊕γ)} for p avoiding α⊕β⊕γ:
    checks that precondition, then colours p by `greedy_colors(α⊕β, p)`."""
    if not (len(alpha) and len(beta) and len(gamma)):
        raise PreconditionError("alpha, beta, gamma must be nonempty")
    ab = direct_sum(alpha, beta)
    abg = direct_sum(ab, gamma)
    if not avoids(abg, p):
        raise PreconditionError(f"{p.text()} contains {abg.text()}")
    return ColoringCertificate(
        subject=p, parts=(ab, direct_sum(beta, gamma)), colors=greedy_colors(ab, p)
    )


def greedy_colors(red: Permutation, p: Permutation) -> tuple[int, ...]:
    """The greedy colours (0 red, 1 blue) of p for the red part `red`.

    Left-to-right scan: colour an element blue if some earlier blue element
    is smaller, or if colouring it red would complete a red occurrence of
    `red`; otherwise red.  For red = α⊕β the red class avoids α⊕β by
    construction, and the blue one avoids β⊕γ whenever p avoids α⊕β⊕γ.

    `_red_scan` classifies the red part once.  A red part Y ⊕ I_j with
    j >= 1 trailing singletons (route a's α⊕1 always is) is tested by
    thresholds, `_threshold_colors`; one that is neither that nor I_a ⊕ D_2
    (route b's 1⊕σ for a longer σ) by a search through each new element,
    `_searched_colors`.

    A red part I_a ⊕ D_2 (route b's 132 = 1⊕21) is scanned here: v
    completes one iff some red y > v has T_a(before y) < v, where
    T_a(before y) is the least top of an increasing a-run among the red
    values before y.  The least tops T_1 < ... < T_a are kept as in patience
    sorting, and T_a only drops.  Each drop starts an epoch; a red value's
    tag is the number of epochs started before it, so the candidates for y
    are the values tagged above e, the first epoch whose T_a lies below v
    (one `bisect`).  A monotone stack of (tag, largest red value with that
    tag or later) answers "is one of them above v?" with a second.  Each
    element takes O(log n) time; memory is O(n).

    >>> greedy_colors(Permutation((1, 3, 2)), Permutation((2, 4, 1, 3, 5)))
    (0, 0, 0, 1, 1)
    """
    y, j, a = _red_scan(red.values)
    if j:
        return _threshold_colors(y, j, p)
    if not a:
        return _searched_colors(red.values, p)
    tops = [math.inf] * a  # tops[i] is T_{i+1}
    drops: list[int] = []  # minus T_a at each epoch's start, increasing
    # tags increase and maxes decrease above a sentinel that is never
    # popped: maxes[i] is the largest red value with a tag >= tags[i]
    tags, maxes = [-1], [math.inf]
    blue_min = math.inf
    colors: list[int] = []
    for v in p.values:
        if blue_min < v:
            colors.append(1)
        elif (i := bisect_right(tags, bisect_right(drops, -v))) < len(tags) and maxes[i] > v:
            colors.append(1)
            blue_min = v  # not above blue_min, so below it
        else:
            colors.append(0)
            while maxes[-1] < v:
                tags.pop()
                maxes.pop()
            if tags[-1] != len(drops):
                tags.append(len(drops))
                maxes.append(v)
            i = bisect_left(tops, v)
            if i < a:
                tops[i] = v
                if i == a - 1:
                    drops.append(-v)
    return tuple(colors)


@lru_cache(maxsize=None)
def _red_scan(red: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
    """How greedy_colors scans for the red part `red`: (Y, j, a) with j >= 1
    for Y ⊕ I_j, j trailing singletons; j = 0 and a >= 1 for I_a ⊕ D_2
    (whose last entry is below its maximum); j = a = 0 for a search."""
    j = 0
    while j < len(red) and red[-1 - j] == len(red) - j:
        j += 1
    shape = run_drop_shape(red)
    return red[: len(red) - j], j, shape[0] if shape and shape[1:] == (2, 0) else 0


def _searched_colors(red: tuple[int, ...], p: Permutation) -> tuple[int, ...]:
    """greedy_colors by one search for a red occurrence through each new
    element."""
    red_vals: list[int] = []
    blue_min = math.inf
    colors: list[int] = []
    for v in p.values:
        if blue_min < v or ends_with_occurrence(red, [*red_vals, v]):
            colors.append(1)
            blue_min = min(blue_min, v)
        else:
            colors.append(0)
            red_vals.append(v)
    return tuple(colors)


def _threshold_colors(y: tuple[int, ...], j: int, p: Permutation) -> tuple[int, ...]:
    """greedy_colors for the red part Y ⊕ I_j, j >= 1.

    T_i is the least top of a Y ⊕ I_i in the red class so far (T_0 = -inf
    for Y = ε, +inf while there is none).  v completes a red Y ⊕ I_j iff
    v > T_{j-1}, and a red v sets T_i = v where T_{i-1} < v < T_i; the T_i
    increase, so that is one i at most, as in patience sorting.
    T_0 is only known as floor0 <= T_0 <= top0: a question T_0 < x the
    bounds leave open costs one `least_top` search below x, which pins T_0
    when it finds a Y; a red push u lowers floor0 to u, since T_0 can only
    drop to u or above.
    When p avoids a pattern of order <= 3 that Y contains (decided by the
    sweep of `avoids`), no red class contains Y: T_0 stays +inf, so every
    element is red and no search runs.
    """
    if y and any(avoids(q, p) for q in _small_subpatterns(y)):
        return (0,) * len(p)
    red_vals: list[int] = []
    top0 = floor0 = math.inf if y else -math.inf
    tops = [math.inf] * j  # tops[i] is T_i for 1 <= i < j

    def t0_below(x: int) -> bool:
        nonlocal top0, floor0
        if x > top0:
            return True
        if x <= floor0:
            return False
        top = least_top(y, red_vals, bound=x)
        if top < x:
            top0 = floor0 = top
            return True
        floor0 = x
        return False

    blue_min = math.inf
    colors: list[int] = []
    for v in p.values:
        if blue_min < v or (v > tops[-1] if j > 1 else t0_below(v)):
            colors.append(1)
            blue_min = min(blue_min, v)
            continue
        colors.append(0)
        for i in range(j - 1, 1, -1):
            if tops[i - 1] < v < tops[i]:
                tops[i] = v
        if j > 1 and v < tops[1] and t0_below(v):
            tops[1] = v
        red_vals.append(v)
        floor0 = min(floor0, v)
    return tuple(colors)


@lru_cache(maxsize=None)
def _small_subpatterns(y: tuple[int, ...]) -> tuple[Permutation, ...]:
    """The patterns of order min(3, |y|) that y contains."""
    return tuple(q for q in all_perms(min(3, len(y))) if not avoids(q, y))


def easy_split_parts(alpha: Permutation, beta: Permutation) -> SplittingSpec:
    """The two-part spec {Av(α⊕1), Av(1⊕β)} splitting Av(α⊕β).

    Certificates come from greedy_three_sum(alpha, 1, beta, ·).
    """
    if len(alpha) < 2 or len(beta) < 2:
        raise PreconditionError("both summands must have order at least two")
    one = Permutation((1,))
    return SplittingSpec.of(direct_sum(alpha, one), direct_sum(one, beta))


def dilworth_split(n: int, p: Permutation) -> ColoringCertificate:
    """Color each element by the length of the longest decreasing subsequence
    ending at it, minus one; every class is increasing.  Requires p to avoid
    n(n-1)...1.  One patience pass: tails[c] is minus the highest bottom of a
    decreasing run of length c + 1, so these increase, and the runs that v
    extends are the first bisect_left(tails, -v).

    >>> dilworth_split(3, Permutation.from_text("231")).colors
    (0, 0, 1)
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    tails: list[int] = []
    colors = []
    for v in p.values:
        c = bisect_left(tails, -v)
        tails[c:c + 1] = [-v]  # replaces tails[c], or appends past the end
        colors.append(c)
    if len(tails) >= n:
        raise PreconditionError(f"{p.text()} contains {decreasing(n).text()}")
    parts = tuple(Permutation((2, 1)) for _ in range(n - 1))
    return ColoringCertificate(subject=p, parts=parts, colors=tuple(colors))


@dataclass(frozen=True)
class MatchingBase:
    """A base colorer for permutation matchings, with a fixed part list."""

    parts: tuple[Permutation, ...]
    fn: Callable[[Matching], ColoringCertificate]

    def __call__(self, m: Matching) -> ColoringCertificate:
        cert = self.fn(m)
        if cert.parts != self.parts:
            raise VerificationError("base colorer must keep a fixed part list")
        return cert

    @cached_property
    def lone_arc_color(self) -> int:
        """The colour of a lone arc, which match_split gives every component
        root; computed once per base."""
        return self(Matching(((1, 2),))).colors[0]

    @cached_property
    def parts_indecomposable(self) -> bool:
        """Are all the part patterns sum-indecomposable, as match_split
        requires?  Decided once per base."""
        return not any(sum_splits(q) for q in self.parts)


def dilworth_matching_base(n: int) -> MatchingBase:
    """Lift dilworth_split(n, ·) to permutation matchings (arc = element)."""
    parts = tuple(Permutation((2, 1)) for _ in range(n - 1))

    def color(m: Matching) -> ColoringCertificate:
        q = perm_of(m)
        if q is None:
            raise VerificationError("base colorer needs a permutation matching")
        elem_cert = dilworth_split(n, q)
        size = len(m)
        # arc (a, b) encodes the element at position b - size
        colors = tuple(elem_cert.colors[b - size - 1] for _, b in m.arcs)
        return ColoringCertificate(subject=m, parts=parts, colors=colors)

    return MatchingBase(parts=parts, fn=color)


@dataclass
class MatchingSplitState:
    """Recursion trace of match_split: obstacle weights and palette copies."""

    pattern_basis: Permutation
    obstacle: Matching
    trace: list[tuple[int, str, int, int]] = field(default_factory=list)
    # entries: (depth, case, obstacle weight, copies allocated)

    def record(self, depth: int, case: str, obstacle: Matching, copies: int) -> None:
        self.trace.append((depth, case, weight(obstacle), copies))


@dataclass(frozen=True, eq=False)
class _ObstaclePlan:
    """How match_split recurses on one obstacle: its arc count, its step
    (case "uplus-obstacle" when obs = M₁⊎M₂ with M₁ its first ⊎-block, else
    "components" with M⁺ and M⁻) and the plans of M₁, M₂ or M⁺, M⁻.  A
    single-arc obstacle has no step and no child plans.  The obstacle's
    weight is not kept, so the trace and the palette bound read `weight`
    at the time of the call."""

    obstacle: Matching
    size: int
    case: str
    first: _ObstaclePlan | None
    second: _ObstaclePlan | None


@lru_cache(maxsize=None)
def _plan(obs: Matching) -> _ObstaclePlan:
    """The obstacle's plan, built once per obstacle with its child plans;
    each step lowers the weight, so the plans below an obstacle are few."""
    if len(obs) < 2:
        return _ObstaclePlan(obs, len(obs), "", None, None)
    head = len(arc_blocks(obs.arcs, range(len(obs)))[0])
    if head < len(obs):
        first, second = Matching.from_arcs(obs.arcs[:head]), Matching.from_arcs(obs.arcs[head:])
        return _ObstaclePlan(obs, len(obs), "uplus-obstacle", _plan(first), _plan(second))
    return _ObstaclePlan(obs, len(obs), "components", _plan(m_plus(obs)), _plan(m_minus(obs)))


@lru_cache(maxsize=None)
def _pattern_matching(pattern: Permutation) -> Matching:
    """m(pattern), built once per pattern: match_split's precondition and
    oneplus_split's obstacle."""
    return m_of(pattern)


def match_split(
    n: Matching,
    pattern: Permutation,
    obstacle: Matching,
    base: MatchingBase,
    state: MatchingSplitState | None = None,
) -> ColoringCertificate:
    """Recursive splitter: color the arcs of an m(pattern)- and obstacle-avoiding
    matching with copies of the base part multiset; with k base parts, part j
    of copy c is colour c·k + j.

    Recursion: a ⊎-decomposable obstacle M₁⊎M₂ splits the host at the first
    prefix containing M₁ (the straddling arcs form a permutation matching and
    go to the base); an indecomposable obstacle is handled per connected
    component via BFS levels, sending each block of a level's left/right side
    to the recursion with the obstacle's leftmost/rightmost arc shortened.
    Copies used never exceed 4^weight(obstacle).

    Each obstacle has one cached plan: its arc count, its step and the plans
    of M₁, M₂ or M⁺, M⁻, so no recursion node hashes a Matching.  The
    recursion works on arc-index lists; each subtree writes its arcs'
    colours, counted from its own first copy, into one list for the host and
    returns its copy count, and one placement step shifts the sections of a
    ⊎ or M± step past the copies before them.  A lone arc under an M± step
    is its component's root and takes one copy with no BFS.  Only the base
    colorer, on the straddling arcs, gets a Matching.  A `state`, when
    given, receives the recursion trace, one row per node; without one none
    is kept.
    """
    if not base.parts_indecomposable:
        raise PreconditionError("base part patterns must be sum-indecomposable")
    m_pattern = _pattern_matching(pattern)
    if matching_contains(m_pattern, n):
        raise PreconditionError(f"host contains m({pattern.text()})")
    if obstacle != m_pattern and matching_contains(obstacle, n):
        raise PreconditionError("host contains the obstacle")
    colors, copies = _split_avoiding(n, obstacle, base, state)
    return ColoringCertificate(subject=n, parts=base.parts * copies, colors=colors)


def _split_avoiding(
    n: Matching, obstacle: Matching, base: MatchingBase, state: MatchingSplitState | None
) -> tuple[tuple[int, ...], int]:
    """match_split's colours and copy count on a host already known to avoid
    m(pattern) and the obstacle; the trace is recorded only into a state the
    caller passed.  The empty host takes no copy and no lone-arc colour."""
    arcs = n.arcs
    if not arcs:
        return (), 0
    graph = CrossingGraph(arcs)
    k = len(base.parts)
    lone = base.lone_arc_color
    colors = [0] * len(arcs)

    def solve(subset: list[int], plan: _ObstaclePlan, depth: int) -> int:
        """Writes copy·k + part, counted from this subtree's first copy, into
        colors at the arcs of subset (sorted); returns the copies used."""
        if not subset:
            return 0
        # at the root, the entry search has just checked this very obstacle;
        # a subset smaller than the obstacle avoids it
        if depth and len(subset) >= plan.size and matching_contains(
            plan.obstacle, [arcs[i] for i in subset]
        ):
            raise VerificationError("recursive avoidance guarantee broke")
        if plan.size == 1:
            raise VerificationError("nonempty host cannot avoid a single-arc obstacle")
        if plan.case == "uplus-obstacle":
            copies = _solve_decomposable(subset, plan.first, plan.second, depth)
        elif len(subset) == 1:  # a lone arc is its component's root
            colors[subset[0]] = lone
            copies = 1
        else:
            copies = max(
                _solve_connected(c, plan.first, plan.second, depth) for c in graph.components(subset)
            )
        if state is not None:
            state.record(depth, plan.case, plan.obstacle, copies)
        return copies

    def stack(sections: Iterable[tuple[list[int], int]]) -> int:
        """Shifts each section's arcs past the copies before it; returns the total."""
        offset = 0
        for members, copies in sections:
            for i in members:
                colors[i] += offset * k
            offset += copies
        return offset

    def _solve_decomposable(subset, p1, p2, depth):
        # the prefix only grows at right endpoints, so the cut is one of them
        for cut in sorted(arcs[i][1] for i in subset):
            if matching_contains(p1.obstacle, [arcs[i] for i in subset if arcs[i][1] <= cut]):
                break
        else:
            return solve(subset, p1, depth + 1)
        left = [i for i in subset if arcs[i][1] < cut]
        right = [i for i in subset if arcs[i][0] > cut]
        middle = [i for i in subset if arcs[i][0] < cut <= arcs[i][1]]
        k1, k2 = solve(left, p1, depth + 1), solve(right, p2, depth + 1)
        for i, color in zip(middle, base(Matching.from_arcs(arcs[i] for i in middle)).colors):
            colors[i] = color
        return stack([(left, k1), (right, k2), (middle, 1)])

    def _solve_connected(comp, plus_plan, minus_plan, depth):
        # sections (even, +), (even, -), (odd, +), (odd, -) get disjoint copies,
        # shared by their levels; groups go level ascending, + before -
        (root,), _ = comp[0]
        colors[root] = lone  # coloured as a lone arc
        if len(comp) == 1:
            return 1
        members: list[list[int]] = [[root], [], [], []]
        copies = [1, 0, 0, 0]
        for level, (plus, minus) in enumerate(comp[1:], 1):
            s = 2 * (level % 2)  # the section of this level's + side; s + 1 is its - side
            for section, group, plan in ((s, plus, plus_plan), (s + 1, minus, minus_plan)):
                for block in arc_blocks(arcs, group):
                    copies[section] = max(copies[section], solve(block, plan, depth + 1))
                    members[section] += block
        return stack(zip(members, copies))

    copies = solve(list(range(len(arcs))), _plan(obstacle), 0)
    if copies > 4 ** weight(obstacle):
        raise VerificationError("palette exceeded the 4^weight bound")
    return tuple(colors), copies


def oneplus_split(
    sigma: Permutation, colorer: MatchingBase, rho: Permutation
) -> ColoringCertificate:
    """Split a (1⊕σ)-avoider: color its reduced envelope with match_split,
    pull arc colors back to the covered elements, and send every LR-minimum to
    part 0.  Each class avoids 1⊕(its part pattern).
    """
    if sum_splits(sigma) or len(sigma) == 0:
        raise PreconditionError("sigma must be nonempty and sum-indecomposable")
    one = Permutation((1,))
    target = direct_sum(one, sigma)
    if not avoids(target, rho):
        raise PreconditionError(f"{rho.text()} contains {target.text()}")

    reduced, positions = reduced_envelope_map(rho)
    cert = match_split(reduced, sigma, _pattern_matching(sigma), colorer)
    k = len(colorer.parts)
    copies = max(1, len(cert.parts) // k)
    parts = tuple(direct_sum(one, q) for q in colorer.parts) * copies
    colors = [0] * len(rho)
    for pos, color in zip(positions, cert.colors):
        colors[pos - 1] = color
    return ColoringCertificate(subject=rho, parts=parts, colors=tuple(colors))


@lru_cache(maxsize=None)
def _clique_setup(n: int) -> tuple[Matching, MatchingBase]:
    """circle_color's obstacle m(n(n-1)...1) and base colorer, built once per n."""
    return m_of(decreasing(n)), dilworth_matching_base(n)


def circle_color(m: Matching, n: int) -> dict[Arc, int]:
    """Properly color the crossing graph of a matching with no n pairwise
    crossing arcs, via match_split against the obstacle m(n(n-1)...1)."""
    clique, base = _clique_setup(n)
    if matching_contains(clique, m):
        raise PreconditionError(f"matching has {n} pairwise crossing arcs")
    colors, _ = _split_avoiding(m, clique, base, None)
    return dict(zip(m.arcs, colors))

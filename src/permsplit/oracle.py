"""Independent brute-force verification of splittings and Ramsey-style searches.

Everything here checks certificates and classes from first principles: merge
membership by exhaustive backtracking over part assignments (verify_splitting
walks the generating tree of the class and resumes each member's search at
its parent's colouring, which skips only tuples that already failed, so the
search stays exhaustive and finds the same lexicographically first
certificate as merge_member; its first step decides all of a parent's
children at once from the parent's colour classes, each with one mask of
the last values that would complete its pattern, read off the occurrences
of the pattern's prefix; at the last order, a parent with a class at least
two entries shorter than its pattern lists none when the colours its
children can use, read off its colouring, are no more than the widest count
so far, since every such child merges), matching
avoidance by scanning arc subsets, unavoidable witnesses by the merge
search, with the one witness returned re-checked over all its
two-colorings.  Color classes are searched as plain value sequences, as they
stand.  A certificate is checked by one pass over its classes,
merge_violations, and merge_check is that pass finding nothing.  It decides
each class of a permutation with perms.avoids, which sweeps the I_a ⊕ D_k-
and I_a ⊕ D_2 ⊕ I_b-shaped patterns (every pattern of order 3 among them)
instead of backtracking, so for those parts it shares no search with the
constructive side's occurrence searches; for the other parts both use the
same backtracking.  The oracle stays independent because it searches
exhaustively instead of following the constructions' case analysis.
Matching containment is re-implemented here as a plain subset scan, except
that one sweep over the endpoints decides every class whose part is 21 (its
arcs must nest), which shares nothing with the constructions' crossing
graph.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Callable, Iterable, Sequence

from .errors import PreconditionError, VerificationError
from .matchings import m_of
from .perms import (
    Embedding,
    Permutation,
    avoider_members,
    avoider_walk,
    avoiders_up_to,
    avoids,
    completing_intervals,
    contains,
    ends_with_occurrence,
)
from .splitters import ColoringCertificate, SplittingSpec


@dataclass(frozen=True)
class MarkedPermutation:
    """A permutation with one distinguished (1-based) position."""

    perm: Permutation
    mark: int

    def __post_init__(self):
        if not 1 <= self.mark <= len(self.perm):
            raise ValueError(f"mark {self.mark} out of range 1..{len(self.perm)}")


@dataclass
class VerificationReport:
    checked: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    max_colors_used: int = 0
    fallbacks: int = 0  # subjects where the constructive splitter did not settle it

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "checked": self.checked,
            "failures": [{"subject": s, "detail": d} for s, d in self.failures],
            "max_colors_used": self.max_colors_used,
            "fallbacks": self.fallbacks,
            "pass": self.passed,
        }


def _submatching_occurrence(
    pattern: Permutation, arcs: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int], ...] | None:
    """Exhaustive subset scan: the first |pattern| arcs that normalize to
    m(pattern), or None."""
    target = m_of(pattern).arcs
    for subset in combinations(arcs, len(pattern)):
        endpoints = sorted(e for arc in subset for e in arc)
        rank = {e: i + 1 for i, e in enumerate(endpoints)}
        if tuple(sorted((rank[a], rank[b]) for a, b in subset)) == target:
            return subset
    return None


_CROSSING_PAIR = Permutation((2, 1))  # m(21) is two crossing arcs


def _crossing_classes(
    arcs: Sequence[tuple[int, int]], colors: Sequence[int], nesting: Sequence[bool]
) -> set[int]:
    """The classes c with nesting[c] that contain m(21), two crossing arcs.

    A class avoids it iff its arcs nest.  One sweep visits the endpoints
    1..2q of the normalized arcs in order, keeping each such class's open
    arcs on a stack: an arc must close while it is the innermost open arc
    of its class, else it crosses that arc.  A class's stack is exact until
    its first crossing, and every close still pops one of its class's open
    arcs, so the sweep goes on past a crossing with every other class
    unaffected."""
    end = [0] * (2 * len(arcs) + 1)  # i + 1 where arc i opens, -(i + 1) where it closes
    for i, (a, b) in enumerate(arcs):
        if nesting[colors[i]]:
            end[a], end[b] = i + 1, -i - 1
    open_arcs: list[list[int]] = [[] for _ in nesting]
    crossing = set()
    for e in end:
        if e > 0:
            open_arcs[colors[e - 1]].append(e)
        elif e and open_arcs[colors[-e - 1]].pop() != -e:
            crossing.add(colors[-e - 1])
    return crossing


def merge_check(cert: ColoringCertificate) -> bool:
    """True iff every color class of the certificate avoids its part pattern:
    merge_violations finds no offending class."""
    return not merge_violations(cert)


def merge_violations(cert: ColoringCertificate) -> list[str]:
    """One entry per offending class: its part pattern and the first occurrence
    found, located in the subject's own coordinates.

    On a permutation, `avoids` decides each class, and only a class that
    contains its part has its positions built and its occurrence located by
    `contains`.  On a matching, one `_crossing_classes` sweep decides every
    class whose part is 21; the subset scan runs on the classes it reports,
    where it locates the crossing pair, and on the classes of other parts."""
    out = []
    colors = cert.colors
    if isinstance(cert.subject, Permutation):
        values = cert.subject.values
        for c, part in enumerate(cert.parts):
            if avoids(part, [v for v, col in zip(values, colors) if col == c]):
                continue
            positions = [i for i, col in enumerate(colors, 1) if col == c]
            emb = contains(part, [values[i - 1] for i in positions])
            where = [positions[j - 1] for j in emb.positions]
            out.append(f"class {c} contains {part.text()} at positions {where}")
        return out
    subject_arcs = cert.subject.arcs
    nesting = [part == _CROSSING_PAIR for part in cert.parts]
    crossing = _crossing_classes(subject_arcs, colors, nesting)
    for c, part in enumerate(cert.parts):
        if nesting[c] and c not in crossing:
            continue
        arcs = [arc for arc, color in zip(subject_arcs, colors) if color == c]
        found = _submatching_occurrence(part, arcs)
        if found is not None:
            shown = " ".join(f"{a}-{b}" for a, b in found)
            out.append(f"class {c} contains m({part.text()}) on arcs {shown}")
    return out


def _merge_search(
    parts: Sequence[Permutation],
) -> tuple[
    Callable[..., tuple[int, ...] | None],
    Callable[..., tuple[list[int], int]],
    Callable[[Sequence[int]], int | None],
]:
    """The exhaustive merge search into `parts`, as three functions.

    colors(values, start=(), c=0) returns the lexicographically least colour
    tuple of a value sequence, at or after the leaf (*start, c) in the search
    order, under which every class avoids its part; None if there is none.
    It backtracks over part assignments element by element, kept iterative
    so that it can begin at `start`: as if every tuple before it had failed,
    and with `start` itself trusted, so the caller guarantees that it colours
    values[:len(start)] validly; c = k (the number of parts) says that every
    class has already been tried for the next element.  A branch is pruned
    as soon as a class completes its forbidden pattern; only occurrences
    through the newest element need testing, and none while the class is
    shorter than its pattern.

    first_steps(q, start, lasts) takes the search's first step for all the
    children q + last of q, a value sequence that `start` colours validly:
    the least class that takes the child's last entry, which sits just below
    q's value `last`.  It builds q's classes once and tries them in index
    order while some last value is left, so a class's `completing_intervals`
    are listed only if a child reaches it.  Which last values complete a
    class's pattern depends on the class alone: its intervals (a, b) become
    one int mask of the blocked last values [a + 1, b] ∩ [1, n], and the
    class takes the others still left.  It returns each class's mask of the
    last values it takes, whose children have the colouring (*start, c) with
    no values of their own, and the mask of those no class takes.

    settled(start) bounds the colours of q's children without listing any
    interval.  The first class c of `start` (sizes start.count(c)) that is
    shorter than its pattern's order minus one is open, since an identical
    twin before it would be as short, and takes every last value the
    classes before it leave; each of those is non-empty or takes no value
    (its pattern has order at most one).  So every child merges by
    (*start, c') for some c' <= c and uses at most len(set(start)) colours,
    plus one if class c is empty.  None if no class is that short.

    Identical empty parts are interchangeable: a class opens only once its
    previous identical twin has, so identical classes fill up in index order,
    and the least tuple, which always fills them so, is never pruned.  The
    twin table is built here, once per part list.
    """
    patterns = [part.values for part in parts]
    k = len(patterns)
    # a class shorter than its pattern's order minus one takes any value
    shorter = [len(pattern) - 1 for pattern in patterns]
    twin = [max((j for j in range(c) if parts[j] == parts[c]), default=-1) for c in range(k)]

    def first_class(classes: list[list[int]], v: int, c: int) -> int:
        """The least class from c on that takes v; k if none.  The classes
        are left as they were."""
        while c < k:
            cls = classes[c]
            if cls or twin[c] < 0 or classes[twin[c]]:
                if len(cls) < shorter[c]:
                    return c
                cls.append(v)
                clash = ends_with_occurrence(patterns[c], cls)
                cls.pop()
                if not clash:
                    return c
            c += 1
        return k

    def colors(
        values: Sequence[int], start: Sequence[int] = (), c: int = 0
    ) -> tuple[int, ...] | None:
        n = len(values)
        classes: list[list[int]] = [[] for _ in range(k)]
        chosen = list(start)
        for v, col in zip(values, chosen):
            classes[col].append(v)
        i = len(chosen)  # next: element i, trying colours c, c+1, ...
        while i < n:
            c = first_class(classes, values[i], c)
            if c < k:
                classes[c].append(values[i])
                chosen.append(c)
                i, c = i + 1, 0
            elif i:
                i -= 1
                c = chosen.pop()
                classes[c].pop()
                c += 1
            else:
                return None
        return tuple(chosen)

    def first_steps(
        q: Sequence[int], start: Sequence[int], lasts: Iterable[int]
    ) -> tuple[list[int], int]:
        classes: list[list[int]] = [[] for _ in range(k)]
        for v, col in zip(q, start):
            classes[col].append(v)
        takes, left, n = [0] * k, 0, len(q) + 1
        for last in lasts:
            left |= 1 << last
        for c in range(k):
            if not left:
                break
            cls = classes[c]
            if cls or twin[c] < 0 or classes[twin[c]]:
                blocked = 0  # a class shorter than its pattern blocks none
                if len(cls) >= shorter[c]:
                    for a, b in completing_intervals(patterns[c], cls):
                        # the new entry sits just below q's value last:
                        # inside (a, b) iff a < last <= b
                        blocked |= (2 << min(b, n)) - (1 << max(a + 1, 1))
                takes[c], left = left & ~blocked, left & blocked
        return takes, left

    def settled(start: Sequence[int]) -> int | None:
        for c in range(k):
            size = start.count(c)
            if size < shorter[c]:
                return len(set(start)) + (not size)
        return None

    return colors, first_steps, settled


def merge_member(
    p: Permutation, spec: SplittingSpec | Sequence[Permutation]
) -> ColoringCertificate | None:
    """The lexicographically first certificate, in part-index order, of a
    merge of p into the parts, or None: `_merge_search` from the empty start.
    """
    parts = spec.flatten() if isinstance(spec, SplittingSpec) else tuple(spec)
    colors = _merge_search(parts)[0](p.values)
    return None if colors is None else ColoringCertificate(subject=p, parts=parts, colors=colors)


def verify_splitting(
    class_basis: Iterable[Permutation],
    spec: SplittingSpec,
    n_max: int,
    splitter: Callable[[Permutation], ColoringCertificate] | None = None,
) -> VerificationReport:
    """Check that every member of Av(class_basis) up to order n_max merges
    into the spec: fast path through the supplied constructive splitter when
    its certificate validates (one merge_violations pass finds nothing, and
    it uses no part outside the spec), the exhaustive merge search
    otherwise; a subject that fails both has the certificate's offending
    classes and surplus parts in its detail.  A splitter raising
    PreconditionError counts as a fallback; any other exception it raises
    is a failure of that subject.  Failures are reported in size-then-lex
    order.

    The members come from `avoider_walk`, the generating tree in which the
    parent of p = q + last is q, p without its last entry, reduced, and each
    parent's children are given by their last values.  p's first n-1 entries
    are order-isomorphic to q, so every colour tuple that fails for q fails
    for p's prefix too, and p's search resumes at q's lexicographically first
    colouring instead of at all zeros.  It is still exhaustive over the rest
    and finds the same lexicographically first colouring as
    merge_member(p, spec).  With no splitter, `first_steps` builds the
    colour classes of a parent that merges once and takes the search's
    first step, the new entry's least class, for all its children at once,
    from their last values alone: each class's intervals of last values
    that complete its pattern become one mask, and the class takes the
    children still left outside it.  The widest colour count, the parent's
    plus one if the class was empty, is updated once per class that takes a
    child, and the children are visited one by one only when their
    colourings are kept (below n_max) or some child is left for the search.
    At n_max only the widest count reads a first step, so a parent whose
    `settled` bound (a class shorter than its pattern's order minus one
    takes every child the classes before it leave) is at most the widest
    count so far takes none: its children all merge and are already
    counted in `checked`.
    Every other child has its values built and goes through one `member`: the
    splitter, if given, and then the search resumed at the leaf (*start, c),
    c = k if no class took the new entry, else 0, so a splitter's fallback
    finds the same least colouring.  A child of a parent with no merge has
    none either, because merging is hereditary, and is not searched;
    children of parents that the splitter handled, or that failed through
    it, search from scratch.  A parent's colouring is found by its index
    among the parents, the only order whose colourings are kept, and a first
    step's colouring (*start, c) is built only below n_max; no certificate
    is built for a searched member.

    >>> spec = SplittingSpec(((Permutation((1, 3, 2)), 1),))
    >>> report = verify_splitting({Permutation((1, 3, 2, 4))}, spec, 4)
    >>> report.checked, len(report.failures), report.failures[0]
    (33, 10, ('1 3 2', 'no merge into the spec exists'))
    """
    parts = spec.flatten()
    k = len(parts)
    spec_counts = Counter(parts)
    colors, first_steps, settled = _merge_search(parts)
    report = VerificationReport()
    failures: list[tuple[tuple[int, ...], str]] = []

    def member(
        vals: tuple[int, ...], start: tuple[int, ...] | None, c: int
    ) -> tuple[int, ...] | None:
        """vals' least colouring, () if it was not searched, None if it has
        none; its search resumes at the leaf (*start, c) (start None: its
        parent has no merge)."""
        constructive = None
        if splitter is not None:
            try:
                constructive = splitter(Permutation._trusted(vals))
            except PreconditionError:
                pass  # outside the splitter's domain: the oracle decides
            except Exception as exc:
                failures.append((vals, f"splitter raised {type(exc).__name__}: {exc}"))
                return ()
            if constructive is not None:
                wrong = merge_violations(constructive)
                surplus = Counter(constructive.parts) - spec_counts
                if surplus:
                    shown = ", ".join(part.text() for part in surplus)
                    wrong.append(f"parts outside the spec: {shown}")
                if not wrong:
                    report.max_colors_used = max(report.max_colors_used, constructive.colors_used())
                    return ()
            report.fallbacks += 1
        least = None if start is None else colors(vals, start, c)
        if least is None:
            detail = "no merge into the spec exists"
            if constructive is not None:
                detail += "; splitter certificate invalid: " + "; ".join(wrong)
            failures.append((vals, detail))
        else:
            report.max_colors_used = max(report.max_colors_used, len(set(least)))
        return least

    walk = avoider_walk(class_basis)
    first = next(walk, None) if n_max >= 0 else None
    if first is None:  # ε is in the basis: the class is empty
        return report
    report.checked = 1
    found: list[tuple[int, ...] | None] = [member((), (), 0)]  # ε, the root
    widest = 0  # colours used by the widest child that took its first step
    for n, (parents, lasts, starts) in zip(range(1, n_max + 1), chain([first], walk)):
        report.checked += len(lasts)
        keep = n < n_max
        colorings: list[tuple[int, ...] | None] = []
        for q, start, lo, hi in zip(parents, found, starts, starts[1:]):
            children, takes = lasts[lo:hi], ()
            # q was searched and merges: its children take their first step
            if splitter is None and start is not None:
                if not keep:  # only widest reads q's children
                    bound = settled(start)
                    if bound is not None and bound <= widest:
                        continue
                takes, left = first_steps(q, start, children)
                used = set(start)
                for c, taken in enumerate(takes):  # the widest child c takes
                    if taken and len(used) + (c not in used) > widest:
                        widest = len(used) + (c not in used)
                if not (keep or left):
                    continue
            for last in children:
                c = 0  # the class that takes it, else len(takes): k, or 0 with no first step
                while c < len(takes) and not takes[c] >> last & 1:
                    c += 1
                if c < len(takes):
                    if keep:
                        colorings.append((*start, c))
                    continue
                vals = avoider_members((q,), (last,), (0, 1))[0]
                colorings.append(member(vals, start, c))
        found = colorings
    report.max_colors_used = max(report.max_colors_used, widest)
    failures.sort(key=lambda failure: (len(failure[0]), failure[0]))
    report.failures = [(Permutation._trusted(vals).text(), detail) for vals, detail in failures]
    return report


def unavoidable_witness(
    class_basis: Iterable[Permutation],
    tau: Permutation,
    pi: Permutation,
    size_bound: int,
) -> Permutation | None:
    """Least (size-then-lex) member of the class whose every red-blue coloring
    has a red tau or a blue pi, found by the merge search into (tau, pi) and
    re-checked over every coloring; None if no witness exists within the
    bound."""
    for sigma in avoiders_up_to(class_basis, size_bound):
        if merge_member(sigma, (tau, pi)) is None:
            if not _recheck_witness(sigma, tau, pi):
                raise VerificationError(f"witness {sigma.text()} failed its re-check")
            return sigma
    return None


def _recheck_witness(sigma: Permutation, tau: Permutation, pi: Permutation) -> bool:
    n = len(sigma)
    for red_size in range(n + 1):
        for red_pos in combinations(range(n), red_size):
            red = [sigma.values[i] for i in red_pos]
            blue = [sigma.values[i] for i in range(n) if i not in red_pos]
            if avoids(tau, red) and avoids(pi, blue):
                return False
    return True


def _embeddings(pattern: Permutation, host: Permutation) -> list[Embedding]:
    """All embeddings, by brute-force subsequence scan."""
    m = len(pattern)
    out = []
    for pos in combinations(range(len(host)), m):
        vals = [host.values[i] for i in pos]
        if all(
            (pattern.values[a] < pattern.values[b]) == (vals[a] < vals[b])
            for a in range(m)
            for b in range(a + 1, m)
        ):
            out.append(Embedding(tuple(i + 1 for i in pos)))
    return out


def amalgamation_search(
    class_basis: Iterable[Permutation],
    r1: MarkedPermutation,
    r2: MarkedPermutation,
    size_bound: int,
) -> tuple[Permutation, Embedding, Embedding] | None:
    """First (size-then-lex) member of the class with embeddings of r1.perm
    and r2.perm whose marked elements coincide; None within the bound means
    {Av(r1.perm), Av(r2.perm)} is a candidate splitting (bound-limited)."""
    for sigma in avoiders_up_to(class_basis, size_bound):
        embs1 = _embeddings(r1.perm, sigma)  # none while sigma is shorter than r1
        if not embs1:
            continue
        embs2 = _embeddings(r2.perm, sigma)
        for g1 in embs1:
            shared = g1.positions[r1.mark - 1]
            for g2 in embs2:
                if g2.positions[r2.mark - 1] == shared:
                    return sigma, g1, g2
    return None


def ama_coloring(
    sigma: Permutation, r1: MarkedPermutation, r2: MarkedPermutation | None = None
) -> ColoringCertificate:
    """Color an element blue iff some embedding of r1.perm maps the mark onto
    it; the red class then avoids r1.perm by construction.  The blue part is
    labelled with r2's pattern when given (the Lemma pairing), else r1's."""
    blue_positions = {
        emb.positions[r1.mark - 1] for emb in _embeddings(r1.perm, sigma)
    }
    colors = tuple(1 if i in blue_positions else 0 for i in range(1, len(sigma) + 1))
    blue_part = r2.perm if r2 is not None else r1.perm
    return ColoringCertificate(subject=sigma, parts=(r1.perm, blue_part), colors=colors)

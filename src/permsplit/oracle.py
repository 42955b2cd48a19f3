"""Independent brute-force verification of splittings and Ramsey-style searches.

Everything here checks certificates and classes from first principles: merge
membership by exhaustive backtracking over part assignments (verify_splitting
walks the generating tree of the class and resumes each member's search at
its parent's colouring, first in the parent's own colour classes, which
skips only tuples that already failed, so the search stays exhaustive and
finds the same lexicographically first certificate as merge_member), matching
avoidance by scanning arc subsets, witness properties by enumerating all
two-colorings.  Color classes are searched as plain value sequences, as they
stand.  merge_check decides each class of a permutation with perms.avoids,
which sweeps the I_a ⊕ D_k- and I_a ⊕ D_2 ⊕ I_b-shaped patterns (every
pattern of order 3 among them) instead of backtracking, so for those parts
it shares no search with the constructive side's occurrence searches; for
the other parts both use the same backtracking.  The oracle stays
independent because it searches exhaustively instead of following the
constructions' case analysis.  Matching containment is re-implemented here
as a plain subset scan, except that merge_check decides a class whose part
is 21 by one sweep over the endpoints (its arcs must nest), which shares
nothing with the constructions' crossing graph.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import PreconditionError, VerificationError
from .matchings import m_of
from .perms import (
    Embedding,
    Permutation,
    avoider_walk,
    avoiders_up_to,
    avoids,
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


def _classes_nest(
    arcs: Sequence[tuple[int, int]], colors: Sequence[int], nesting: Sequence[bool]
) -> bool:
    """Does every class c with nesting[c] avoid m(21), two crossing arcs?

    A class avoids it iff its arcs nest.  One sweep visits the endpoints
    1..2q of the normalized arcs in order, keeping each such class's open
    arcs on a stack: an arc must close while it is the innermost open arc
    of its class, else it crosses that arc."""
    end = [0] * (2 * len(arcs) + 1)  # i + 1 where arc i opens, -(i + 1) where it closes
    for i, (a, b) in enumerate(arcs):
        if nesting[colors[i]]:
            end[a], end[b] = i + 1, -i - 1
    open_arcs: list[list[int]] = [[] for _ in nesting]
    for e in end:
        if e > 0:
            open_arcs[colors[e - 1]].append(e)
        elif e and open_arcs[colors[-e - 1]].pop() != -e:
            return False
    return True


def merge_check(cert: ColoringCertificate) -> bool:
    """True iff every color class of the certificate avoids its part pattern;
    False at the first class that does not.  merge_violations says where.

    On a matching, the classes whose part is 21 are decided by one sweep,
    `_classes_nest`, and the others by the subset scan."""
    if not isinstance(cert.subject, Permutation):
        arcs = cert.subject.arcs
        nesting = [part == _CROSSING_PAIR for part in cert.parts]
        return _classes_nest(arcs, cert.colors, nesting) and all(
            nesting[c]
            or _submatching_occurrence(part, [a for a, col in zip(arcs, cert.colors) if col == c])
            is None
            for c, part in enumerate(cert.parts)
        )
    vals = cert.subject.values
    return all(
        avoids(part, [v for v, col in zip(vals, cert.colors) if col == c])
        for c, part in enumerate(cert.parts)
    )


def merge_violations(cert: ColoringCertificate) -> list[str]:
    """One entry per offending class: its part pattern and the first occurrence
    found, located in the subject's own coordinates."""
    out = []
    if isinstance(cert.subject, Permutation):
        for c, part in enumerate(cert.parts):
            positions = [i for i, col in enumerate(cert.colors, 1) if col == c]
            vals = [cert.subject.values[i - 1] for i in positions]
            emb = contains(part, vals)
            if emb is not None:
                where = [positions[j - 1] for j in emb.positions]
                out.append(f"class {c} contains {part.text()} at positions {where}")
        return out
    for c, part in enumerate(cert.parts):
        arcs = [arc for arc, color in zip(cert.subject.arcs, cert.colors) if color == c]
        found = _submatching_occurrence(part, arcs)
        if found is not None:
            shown = " ".join(f"{a}-{b}" for a, b in found)
            out.append(f"class {c} contains m({part.text()}) on arcs {shown}")
    return out


def _merge_search(
    parts: Sequence[Permutation],
) -> Callable[..., tuple[int, ...] | None]:
    """The exhaustive merge search into `parts`, as a function
    colors(values, start, shared) of a value sequence, a leaf to begin at
    and, optionally, that leaf's colour classes.

    colors returns the lexicographically least colour tuple, at or after the
    leaf `start` in the search order, under which every class avoids its
    part; None if there is none.  It backtracks over part assignments element
    by element, kept iterative so that it can begin at `start`: as if every
    tuple before it had failed, and with `start` itself trusted, so the
    caller guarantees that it colours values[:len(start)] validly.  A branch
    is pruned as soon as a class completes its forbidden pattern; only
    occurrences through the newest element need testing, and none while the
    class is shorter than its pattern.

    `shared`, when given, holds start's classes over values without its last
    entry, reduced, with every value doubled, so len(start) = len(values) - 1
    and the last entry enters them as 2 * values[-1] - 1.  Then the search's
    first step, the last entry's least class, is taken in them (each try is
    undone, so one parent's classes serve all its children), and only if no
    class takes it does the search build its own classes and backtrack.

    Identical empty parts are interchangeable: a class opens only once its
    previous identical twin has, so identical classes fill up in index order,
    and the least tuple, which always fills them so, is never pruned.  The
    twin table is built here, once per part list.
    """
    patterns = [part.values for part in parts]
    k = len(patterns)
    twin = [max((j for j in range(c) if parts[j] == parts[c]), default=-1) for c in range(k)]

    def first_class(classes: list[list[int]], v: int, c: int) -> int:
        """The least class from c on that takes v, left appended to it; k if none."""
        while c < k:
            cls = classes[c]
            if cls or twin[c] < 0 or classes[twin[c]]:
                cls.append(v)
                if len(cls) < len(patterns[c]) or not ends_with_occurrence(patterns[c], cls):
                    return c
                cls.pop()
            c += 1
        return k

    def colors(
        values: Sequence[int], start: Sequence[int] = (), shared: list[list[int]] | None = None
    ) -> tuple[int, ...] | None:
        c = 0
        if shared is not None:
            c = first_class(shared, 2 * values[-1] - 1, 0)
            if c < k:
                shared[c].pop()
                return (*start, c)
        n = len(values)
        classes: list[list[int]] = [[] for _ in range(k)]
        chosen = list(start)
        for v, col in zip(values, chosen):
            classes[col].append(v)
        i = len(chosen)  # next: element i, trying colours c, c+1, ...
        while i < n:
            c = first_class(classes, values[i], c)
            if c < k:
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

    return colors


def merge_member(
    p: Permutation, spec: SplittingSpec | Sequence[Permutation]
) -> ColoringCertificate | None:
    """The lexicographically first certificate, in part-index order, of a
    merge of p into the parts, or None: `_merge_search` from the empty start.
    """
    parts = spec.flatten() if isinstance(spec, SplittingSpec) else tuple(spec)
    colors = _merge_search(parts)(p.values)
    return None if colors is None else ColoringCertificate(subject=p, parts=parts, colors=colors)


def verify_splitting(
    class_basis: Iterable[Permutation],
    spec: SplittingSpec,
    n_max: int,
    splitter: Callable[[Permutation], ColoringCertificate] | None = None,
) -> VerificationReport:
    """Check that every member of Av(class_basis) up to order n_max merges
    into the spec: fast path through the supplied constructive splitter when
    its certificate validates, the exhaustive merge search otherwise.  A
    splitter raising PreconditionError counts as a fallback; any other
    exception it raises is a failure of that subject.  Failures are reported
    in size-then-lex order.

    The members come from `avoider_walk`, the generating tree in which the
    parent of p = q + last is q, p without its last entry, reduced, and each
    parent's children follow one another.  p's first n-1 entries are
    order-isomorphic to q, so every colour tuple that fails for q fails for
    p's prefix too, and p's search resumes at q's lexicographically first
    colouring instead of at all zeros.  It is still exhaustive over the rest
    and finds the same lexicographically first colouring as
    merge_member(p, spec).  The colour classes of a parent that merges are
    built once, in its own values doubled, and each child's search takes its
    first step, the new entry's least class, in them; only a child that no
    class takes builds classes of its own.  A child of a parent with no
    merge has none either, because merging is hereditary, and is not
    searched.  Children of parents that the splitter handled, or that failed
    through the splitter, search from scratch.  A parent's colouring is
    found by its index in the previous level, the only level whose
    colourings are kept; members are wrapped in `Permutation` only for the
    splitter or a failure's text, and no certificate is built for a searched
    member.
    """
    parts = spec.flatten()
    spec_counts = Counter(parts)
    search = _merge_search(parts)
    report = VerificationReport()
    failures: list[tuple[tuple[int, ...], str]] = []
    # found[i]: the least colouring of the previous level's i-th member, None
    # if it has none, () if it was not searched; level 0's parent is the root
    parents: list[tuple[int, ...]] = [()]
    found: list[tuple[int, ...] | None] = [()]
    for n, (level, starts) in zip(range(n_max + 1), avoider_walk(class_basis)):
        report.checked += len(level)
        colorings: list[tuple[int, ...] | None] = []
        for q, start, lo, hi in zip(parents, found, starts, starts[1:]):
            shared = None
            if start is not None and len(start) == n - 1:  # q was searched and merges
                shared = [[] for _ in parts]
                for v, c in zip(q, start):
                    shared[c].append(2 * v)
            for vals in level[lo:hi]:
                constructive = error = None
                if splitter is not None:
                    try:
                        constructive = splitter(Permutation._trusted(vals))
                    except PreconditionError:
                        pass  # outside the splitter's domain: the oracle decides
                    except Exception as exc:
                        error = f"splitter raised {type(exc).__name__}: {exc}"
                colors = ()  # not searched
                if error is not None:
                    failures.append((vals, error))
                elif (
                    constructive is not None
                    and not (Counter(constructive.parts) - spec_counts)
                    and merge_check(constructive)
                ):
                    report.max_colors_used = max(report.max_colors_used, constructive.colors_used())
                else:
                    if splitter is not None:
                        report.fallbacks += 1
                    colors = None if start is None else search(vals, start, shared)
                    if colors is None:
                        detail = "no merge into the spec exists"
                        if constructive is not None:
                            detail += "; splitter certificate invalid: " + "; ".join(
                                merge_violations(constructive)
                            )
                        failures.append((vals, detail))
                    else:
                        report.max_colors_used = max(report.max_colors_used, len(set(colors)))
                if n < n_max:
                    colorings.append(colors)
        parents, found = level, colorings
    failures.sort(key=lambda failure: (len(failure[0]), failure[0]))
    report.failures = [(Permutation._trusted(vals).text(), detail) for vals, detail in failures]
    return report


def _coloring_defeats(
    sigma: Permutation, tau: Permutation, pi: Permutation
) -> tuple[int, ...] | None:
    """A red/blue coloring of sigma with no red tau and no blue pi, if any."""
    n = len(sigma)
    for mask in range(1 << n):
        red = [v for i, v in enumerate(sigma.values) if not mask >> i & 1]
        blue = [v for i, v in enumerate(sigma.values) if mask >> i & 1]
        if avoids(tau, red) and avoids(pi, blue):
            return tuple(mask >> i & 1 for i in range(n))
    return None


def unavoidable_witness(
    class_basis: Iterable[Permutation],
    tau: Permutation,
    pi: Permutation,
    size_bound: int,
) -> Permutation | None:
    """Least (size-then-lex) member of the class whose every red-blue coloring
    has a red tau or a blue pi; None if no witness exists within the bound."""
    for sigma in avoiders_up_to(class_basis, size_bound):
        if _coloring_defeats(sigma, tau, pi) is None:
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

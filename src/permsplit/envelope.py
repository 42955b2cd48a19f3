"""Envelope matchings: the staircase path under a permutation diagram.

The envelope of π is the highest non-increasing lattice path below the diagram;
labelling its 2n steps in traversal order and pairing the down-step in each
element's row with the right-step in its column yields the envelope matching
E(π).  Short arcs of E(π) correspond exactly to LR-minima.  The long arcs form
the reduced envelope R(π), which tracks containment of patterns 1⊕σ.

An EnvelopeDecomposition serializes as {"perm": ..., "path": "DDRR...",
"arcs": "1-4 2-3"}.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import VerificationError
from .matchings import Arc, Matching
from .perms import Permutation


@dataclass(frozen=True)
class EnvelopeDecomposition:
    perm: Permutation
    path: str  # 'D'/'R' per step, labels are 1-based string positions
    arcs: Matching
    elem_to_arc: tuple[Arc, ...]  # arc of the element at each position

    def to_json_dict(self) -> dict:
        return {"perm": self.perm.text(), "path": self.path, "arcs": self.arcs.text()}


def reduced_envelope_walk(p: Permutation) -> tuple[list[int], list[int]]:
    """R(p) by one walk along the envelope path, with no labels: its endpoint
    sequence, k + 1 where arc k opens and ~k = -(k + 1) where it closes (the
    encoding `CrossingGraph.from_ends` reads), and positions[k], the column
    of arc k's element.  At a new prefix minimum p(i), the rows above it not
    yet stepped each open an arc, numbered in opening (left-end) order, and
    p(i)'s own short arc is skipped; any other right-step closes row p(i)'s arc."""
    arc, positions, ends = [0] * (len(p) + 1), [0] * len(p), []
    low, opened = len(p) + 1, 0  # rows low and up are stepped
    for i, v in enumerate(p.values, start=1):
        if v < low:
            top = opened + low - v - 1
            ends.extend(range(opened + 1, top + 1))
            arc[v + 1 : low] = range(top - 1, opened - 1, -1)  # arc[r]: row r's arc
            opened, low = top, v
        else:
            ends.append(~arc[v])
            positions[arc[v]] = i
    del positions[opened:]
    return ends, positions


def envelope_of(p: Permutation) -> EnvelopeDecomposition:
    """Walk the envelope path of p once, labelling its steps, and read off
    E(p): before column i's R the path steps D for each row not yet stepped
    down to p(i), and element i's arc joins row p(i)'s D to column i's R.

    >>> envelope_of(Permutation.from_text("132")).arcs.text()
    '1-5 2-6 3-4'
    >>> envelope_of(Permutation.from_text("21")).arcs.text()
    '1-2 3-4'
    """
    steps, down, elem_to_arc = [], [0] * (len(p) + 1), []
    low = len(p) + 1  # rows low and up are stepped; down[r] is row r's label
    for v in p.values:
        while low > v:
            low -= 1
            steps.append("D")
            down[low] = len(steps)
        steps.append("R")
        elem_to_arc.append((down[v], len(steps)))
    return EnvelopeDecomposition(
        perm=p,
        path="".join(steps),
        arcs=Matching(tuple(sorted(elem_to_arc))),
        elem_to_arc=tuple(elem_to_arc),
    )


def is_envelope_matching(m: Matching) -> bool:
    """The decodability condition: a left endpoint directly followed by a
    right endpoint must be matched to it."""
    lefts = {a for a, _ in m.arcs}
    return all(b == a + 1 or a + 1 in lefts for a, b in m.arcs)


def decode_envelope(m: Matching) -> Permutation | None:
    """The unique π with E(π) = m, or None if m is not an envelope matching.

    Reconstructs the lattice path whose a-th step is a down-step exactly when
    a is a left endpoint, then reads each arc as a (row, column) pair.
    """
    if not is_envelope_matching(m):
        return None
    n = len(m)  # the t-th arc is in row n - t, and its rank by right end is its column
    by_column = sorted(range(n), key=lambda t: m.arcs[t][1])
    return Permutation(tuple(n - t for t in by_column))


def reduced_envelope(p: Permutation) -> Matching:
    """The long arcs of E(p), renormalized; empty for decreasing permutations."""
    return reduced_envelope_map(p)[0]


def reduced_envelope_map(p: Permutation) -> tuple[Matching, tuple[int, ...]]:
    """R(p) together with the covered element behind each of its arcs.

    The j-th entry is the 1-based position of the element whose envelope arc
    became the j-th arc of R(p) (both sides in left-endpoint order).  The
    arcs are read off reduced_envelope_walk's endpoint sequence, where an
    endpoint is its index: no sort and no `Matching` validation.
    """
    ends, positions = reduced_envelope_walk(p)
    at = {k: e for e, k in enumerate(ends, start=1)}
    arcs = tuple((at[k + 1], at[~k]) for k in range(len(positions)))
    return Matching._trusted(arcs), tuple(positions)


def matching_to_perm(m: Matching) -> Permutation:
    """A canonical permutation whose reduced envelope matching is m.

    Inserts a short arc into every gap between a left endpoint and an
    immediately following right endpoint, then decodes the result.  (The
    preimage of R is not unique; this picks the greedy left-to-right one.)
    """
    lefts = {a for a, _ in m.arcs}
    shorts = [(a + 1 / 3, a + 2 / 3) for a, _ in m.arcs if a + 1 not in lefts]
    result = decode_envelope(Matching.from_arcs([*m.arcs, *shorts]))
    if result is None:
        raise VerificationError("short-arc insertion must produce an envelope matching")
    return result

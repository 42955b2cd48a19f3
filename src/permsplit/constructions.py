"""Explicit witness constructions and the end-to-end splitting router.

For a sum-indecomposable σ, n_plus/n_minus augment m(σ) with its leftmost/
rightmost arc shortened into a connected m(σ)-avoiding matching; tau_of turns
any m(σ)-avoiding matching N into a (1⊕σ)-avoiding permutation τ(N) that is
contained in every (1⊕σ)-avoider whose reduced envelope contains N.  Their
guarantees are re-verified computationally on every call: the case analysis
behind them is delicate, so the artifact is self-checking.

theorem_split routes a decomposable pattern to its splitting:
  (a) α⊕β with both orders ≥ 2      -> {Av(α⊕1), Av(1⊕β)}
  (b) three-summand decompositions  -> {Av(α⊕β), Av(β⊕γ)}
  (c) 1⊕σ, σ indecomposable, |σ|≥3  -> 2·{Av(τ(N⁺))} ∪ 2·{Av(τ(N⁻))}
  (d) σ⊕1                           -> case (c) through reverse-complement
  (e) skew-decomposable only        -> through complement
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .envelope import matching_to_perm, reduced_envelope_walk
from .errors import PreconditionError, VerificationError
from .matchings import (
    CrossingGraph,
    Matching,
    is_connected,
    m_of,
    m_plus,
    matching_contains,
    mirror,
)
from .perms import (
    SYMMETRIES,
    Permutation,
    avoids,
    direct_sum,
    direct_sum_all,
    inverse,
    is_simple,
    skew_decompose,
    sum_components,
    sum_decompose,
)
from .splitters import ColoringCertificate, SplittingSpec, easy_split_parts, greedy_colors

UNSPLITTABLE_SMALL = frozenset(
    Permutation.from_text(t) for t in ("1", "12", "21", "132", "213", "231", "312")
)


def _require_witness_sigma(sigma: Permutation, least: int) -> None:
    if len(sigma) < least or sum_decompose(sigma) is not None:
        raise PreconditionError(
            f"sigma must be sum-indecomposable of order >= {least}: {sigma.text()}"
        )


@lru_cache(maxsize=None)
def n_plus(sigma: Permutation) -> Matching:
    """The first connected, m(σ)-avoiding augmentation of m_plus(m(σ)), which
    is m(σ) with its leftmost arc shortened.  It contains m_plus(m(σ)) by
    construction; connectivity and avoidance, the search's own tests, are
    checked again before return.
    """
    _require_witness_sigma(sigma, 3)
    m = m_of(sigma)
    result = _augment_connected_avoiding(m_plus(m), m)
    if not is_connected(result) or matching_contains(m, result):
        raise VerificationError(f"n_plus({sigma.text()}) failed its guarantees")
    return result


@lru_cache(maxsize=None)
def n_minus(sigma: Permutation) -> Matching:
    """Mirror image of n_plus on the inverse: mirroring m(σ) gives m(σ⁻¹)."""
    _require_witness_sigma(sigma, 3)
    result = mirror(n_plus(inverse(sigma)))
    if not is_connected(result) or matching_contains(m_of(sigma), result):
        raise VerificationError(f"n_minus({sigma.text()}) failed its guarantees")
    return result


def _augment_connected_avoiding(base: Matching, forbidden: Matching) -> Matching:
    """The first augmentation of `base` that is connected and avoids
    `forbidden`: one to three added arcs, each between two gaps of base's
    endpoints, tried by arc count and then in lexicographic order."""
    gaps = [g + 0.5 for g in range(0, 2 * len(base) + 1)]
    candidates = [(lo, hi) for i, lo in enumerate(gaps) for hi in gaps[i + 1 :]]
    for extra in range(1, 4):
        for combo in combinations(candidates, extra):
            coords = [e for arc in combo for e in arc]
            if len(set(coords)) < len(coords):
                continue
            cand = Matching.from_arcs(list(base.arcs) + list(combo))
            if is_connected(cand) and not matching_contains(forbidden, cand):
                return cand
    raise VerificationError("no connected avoiding augmentation within bounds")


def m_prime(sigma: Permutation) -> Matching:
    """Uncross the two arcs of m(σ) at the central endpoints m and m+1."""
    _require_witness_sigma(sigma, 2)
    m = m_of(sigma)
    size = len(m)
    i = next(b for a, b in m.arcs if a == size)
    j = next(a for a, b in m.arcs if b == size + 1)
    kept = [arc for arc in m.arcs if arc not in ((size, i), (j, size + 1))]
    return Matching.from_arcs(kept + [(size + 1, i), (j, size)])


def tau_of(n: Matching, sigma: Permutation) -> Permutation:
    """The witness permutation τ(N) of an m(σ)-avoiding matching N.

    Plants a copy of m_prime(σ) in every right-left endpoint gap of N (any
    tangling that would reorder N's endpoints now completes a copy of m(1⊕σ)),
    and returns envelope.matching_to_perm of the result, which inserts the
    short arcs and decodes.  The result is checked to avoid 1⊕σ.
    """
    _require_witness_sigma(sigma, 2)
    if matching_contains(m_of(sigma), n):
        raise PreconditionError("matching must avoid m(sigma)")
    planted = m_prime(sigma)
    width = 2 * len(planted) + 1
    lefts = {a for a, _ in n.arcs}
    arcs: list[tuple[float, float]] = list(n.arcs)
    for e in (b for _, b in n.arcs if b + 1 in lefts):  # right-left endpoint gaps
        arcs.extend((e + a / width, e + b / width) for a, b in planted.arcs)
    tau = matching_to_perm(Matching.from_arcs(arcs))
    if not avoids(direct_sum(Permutation((1,)), sigma), tau):
        raise VerificationError(f"tau_of produced a witness containing 1⊕{sigma.text()}")
    return tau


@dataclass(frozen=True)
class WitnessPair:
    sigma: Permutation
    n_plus: Matching
    n_minus: Matching
    tau_plus: Permutation
    tau_minus: Permutation


@lru_cache(maxsize=None)
def witness_pair(sigma: Permutation) -> WitnessPair:
    np_, nm = n_plus(sigma), n_minus(sigma)
    return WitnessPair(
        sigma=sigma,
        n_plus=np_,
        n_minus=nm,
        tau_plus=tau_of(np_, sigma),
        tau_minus=tau_of(nm, sigma),
    )


@dataclass(frozen=True)
class TheoremPlan:
    """Resolved routing for theorem_split: spec plus certificate recipe."""

    pattern: Permutation
    route: str  # one of "a", "b", "c", "d", "e"
    symmetry: str  # "none", "reverse-complement", or "complement"
    spec: SplittingSpec
    triple: tuple[Permutation, Permutation, Permutation] | None = None
    inner: "TheoremPlan | None" = None


@lru_cache(maxsize=None)
def theorem_plan(pattern: Permutation) -> TheoremPlan:
    if pattern in UNSPLITTABLE_SMALL:
        raise PreconditionError(f"Av({pattern.text()}) is unsplittable")
    comps = sum_components(pattern)
    if len(comps) >= 2:
        for k in range(1, len(comps)):
            alpha, beta = direct_sum_all(comps[:k]), direct_sum_all(comps[k:])
            if len(alpha) >= 2 and len(beta) >= 2:
                spec = easy_split_parts(alpha, beta)
                triple = (alpha, Permutation((1,)), beta)
                return TheoremPlan(pattern, "a", "none", spec, triple=triple)
        if len(comps) >= 3:
            alpha, beta, gamma = comps[0], direct_sum_all(comps[1:-1]), comps[-1]
            spec = SplittingSpec.of(direct_sum(alpha, beta), direct_sum(beta, gamma))
            return TheoremPlan(pattern, "b", "none", spec, triple=(alpha, beta, gamma))
        if len(comps[0]) == 1:
            w = witness_pair(comps[1])
            spec = SplittingSpec(((w.tau_plus, 2), (w.tau_minus, 2)))
            return TheoremPlan(pattern, "c", "none", spec)
    elif skew_decompose(pattern) is None:
        raise PreconditionError(f"{pattern.text()} is neither sum- nor skew-decomposable")
    # σ⊕1 (route d) and skew-decomposable patterns (route e): plan the image
    # under the symmetry and map its parts back; both symmetries are involutions
    route, symmetry = ("d", "reverse-complement") if len(comps) >= 2 else ("e", "complement")
    sym = SYMMETRIES[symmetry]
    inner = theorem_plan(sym(pattern))
    spec = SplittingSpec(tuple((sym(q), mult) for q, mult in inner.spec.parts))
    return TheoremPlan(pattern, route, symmetry, spec, inner=inner)


def theorem_split(pattern: Permutation) -> SplittingSpec:
    """The splitting of Av(pattern) for a decomposable pattern other than the
    small unsplittable ones.

    >>> theorem_split(Permutation.from_text("1324")).text()
    '1 3 2,2 1 3'
    """
    return theorem_plan(pattern).spec


def theorem_certificate(pattern: Permutation, p: Permutation) -> ColoringCertificate:
    """A certificate placing a pattern-avoider into theorem_split(pattern)."""
    plan = theorem_plan(pattern)
    if not avoids(pattern, p):
        raise PreconditionError(f"{p.text()} contains {pattern.text()}")
    # every route's part list is plan.spec's: only the colours are computed
    return ColoringCertificate(subject=p, parts=plan.spec.flatten(), colors=_colors(plan, p))


def _colors(plan: TheoremPlan, p: Permutation) -> tuple[int, ...]:
    """The colours of p's certificate against plan.spec.flatten().  Routes d
    and e colour the image of p under their symmetry, which maps avoiders of
    plan.pattern onto avoiders of plan.inner.pattern, so the recursion does
    not check containment again."""
    if plan.route in ("a", "b"):
        # the triple sums to plan.pattern (route b) or contains it (route a),
        # so p meets greedy_three_sum's precondition unchecked
        return greedy_colors(plan.spec.flatten()[0], p)
    if plan.route == "c":
        return _level_side_classes(p)
    colors = _colors(plan.inner, SYMMETRIES[plan.symmetry](p))
    # reverse-complement also reverses positions
    return colors[::-1] if plan.symmetry == "reverse-complement" else colors


def _level_side_classes(p: Permutation) -> tuple[int, ...]:
    """Level/side coloring of R(p) for route c's parts (τ⁺, τ⁺, τ⁻, τ⁻):
    classes (even/odd, left/right) avoid N± and therefore τ(N±); LR-minima
    ride along in class 0.  No R(p) `Matching` is built."""
    ends, positions = reduced_envelope_walk(p)
    colors = [0] * len(p)
    for comp in CrossingGraph.from_ends(ends).components(range(len(positions))):
        for level, sides in enumerate(comp):
            for side, group in enumerate(sides):  # 0 for plus, 1 for minus
                for j in group:
                    colors[positions[j] - 1] = level % 2 + 2 * side
    return tuple(colors)


@dataclass(frozen=True)
class Classification:
    verdict: str  # "splittable" | "unsplittable" | "unknown"
    reason: str

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason}


def classify_pattern(p: Permutation) -> Classification:
    """Splittability of Av(p), as far as the theory decides it.

    >>> classify_pattern(Permutation.from_text("2413")).verdict
    'unsplittable'
    """
    if is_simple(p):
        return Classification("unsplittable", "simple")
    if p in UNSPLITTABLE_SMALL:
        return Classification("unsplittable", "symmetry of 132")
    if sum_decompose(p) is not None or skew_decompose(p) is not None:
        return Classification("splittable", "decomposable")
    return Classification("unknown", "not simple, indecomposable both ways")

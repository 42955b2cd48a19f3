"""Acceptance suite: one test per criterion, exhaustive at the stated sizes.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
Regression constants marked PINNED were computed by the first verified run of
this suite and frozen; a change in any of them is a behavior change.
"""
from __future__ import annotations

import hashlib
import json
from itertools import permutations as it_permutations

from conftest import matchings_up_to

from permsplit.constructions import (
    n_minus,
    n_plus,
    tau_of,
    theorem_certificate,
    theorem_plan,
)
from permsplit.envelope import (
    decode_envelope,
    envelope_of,
    is_envelope_matching,
    reduced_envelope,
)
from permsplit.matchings import (
    Matching,
    crosses,
    is_connected,
    m_of,
    matching_contains,
)
from permsplit.oracle import (
    MarkedPermutation,
    amalgamation_search,
    merge_check,
    merge_member,
    unavoidable_witness,
    verify_splitting,
)
from permsplit.perms import (
    SYMMETRIES,
    Permutation,
    all_perms,
    avoiders_up_to,
    contains,
    direct_sum,
    lr_minima,
    skew_decompose,
    sum_decompose,
)
from permsplit.splitters import (
    SplittingSpec,
    circle_color,
    dilworth_matching_base,
    dilworth_split,
    greedy_three_sum,
    oneplus_split,
)

P = Permutation.from_text
M = Matching.from_text
ONE = P("1")

# PINNED regression constants (first verified run of this suite).
AV_1324_ORDER_8 = 15793
CIRCLE_SWEEP_SUBJECTS = 5416
CIRCLE_MAX_COLORS_USED = 5  # literature optimum for K3-free circle graphs is f(3)=5;
# reaching it here is not a minimality claim, the splitter only promises 4^6*2.
ONEPLUS_MAX_PARTS = 8
ONEPLUS_MAX_COLORS_USED = 4
# SHA-256 of the acceptance-05 stream of [arcs text, colours] JSON lines
CIRCLE_SWEEP_SHA256 = "0b021c2c3bf7dba5031bb3818c3759418b02f48917769e23ab02df1be8bdf199"
# SHA-256 of the acceptance-06 stream of oneplus_split certificate JSON lines
ONEPLUS_STREAM_SHA256 = "2172ba55c4b00d50855cfc0bf80113bc9f5dc593981eb08f421652ba7ffdc9a5"


def _report(criterion: int, detail: str) -> None:
    print(f"[acceptance {criterion}] PASS — {detail}")


def test_acceptance_01_greedy_three_sum():
    failures = 0
    checked = 0
    for p in avoiders_up_to({P("1324")}, 8):
        cert = greedy_three_sum(ONE, P("21"), ONE, p)
        checked += 1
        if cert.parts != (P("132"), P("213")) or not merge_check(cert):
            failures += 1
    assert checked == 1 + 1 + 2 + 6 + 23 + 103 + 513 + 2762 + AV_1324_ORDER_8
    assert failures == 0

    cross = 0
    for p in avoiders_up_to({P("21345")}, 7):
        cert = greedy_three_sum(P("21"), ONE, P("12"), p)
        cross += 1
        if cert.parts != (P("213"), P("123")) or not merge_check(cert):
            failures += 1
    assert failures == 0
    _report(1, f"{checked} subjects in Av(1324), {cross} in Av(21345), 0 failures")


def test_acceptance_02_envelope_round_trip():
    assert envelope_of(P("132")).arcs == M("1-5 2-6 3-4")
    assert envelope_of(P("21")).arcs == M("1-2 3-4")
    checked = 0
    for n in range(9):
        for vals in it_permutations(range(1, n + 1)):
            p = Permutation(vals)
            env = envelope_of(p)
            assert is_envelope_matching(env.arcs)
            assert decode_envelope(env.arcs) == p
            checked += 1
    assert checked == sum(
        1 * f for f in (1, 1, 2, 6, 24, 120, 720, 5040, 40320)
    )
    _report(2, f"{checked} round trips, all envelope conditions hold")


def test_acceptance_03_reduced_envelope_biconditional():
    sigmas = [P(t) for t in ("1", "12", "21", "231", "312", "321", "2413")]
    patterns = {s: direct_sum(ONE, s) for s in sigmas}
    m_sigmas = {s: m_of(s) for s in sigmas}
    disagreements = 0
    checked = 0
    for n in range(8):
        for vals in it_permutations(range(1, n + 1)):
            pi = Permutation(vals)
            reduced = reduced_envelope(pi)
            for s in sigmas:
                checked += 1
                lhs = matching_contains(m_sigmas[s], reduced)
                rhs = contains(patterns[s], pi) is not None
                if lhs != rhs:
                    disagreements += 1
    assert disagreements == 0
    _report(3, f"{checked} (σ, π) pairs, 0 disagreements")


def test_acceptance_04_non_lr_minimum_insertions_add_one_long_arc():
    # inserting an element that is not an LR-minimum adds one long arc to the
    # envelope matching and leaves the other arcs as they were
    checked = 0
    for n in range(6):
        for vals in it_permutations(range(1, n + 1)):
            e_rho = envelope_of(Permutation(vals)).arcs
            for pos in range(n + 1):
                for newval in range(1, n + 2):
                    lifted = [v if v < newval else v + 1 for v in vals]
                    tau = Permutation(tuple(lifted[:pos] + [newval] + lifted[pos:]))
                    if pos + 1 in lr_minima(tau):
                        continue
                    e_tau = envelope_of(tau)
                    new_arc = e_tau.elem_to_arc[pos]
                    rest = [a for a in e_tau.arcs.arcs if a != new_arc]
                    assert new_arc[1] - new_arc[0] > 1, (vals, pos, newval)
                    assert Matching.from_arcs(rest) == e_rho, (vals, pos, newval)
                    checked += 1
    _report(4, f"{checked} single-element extensions by a non-LR-minimum, 0 failures")


def test_acceptance_05_circle_coloring_sweep():
    obstacle = m_of(P("321"))
    bound = 4**6 * 2
    checked = 0
    max_used = 0
    stream = hashlib.sha256()
    for m in matchings_up_to(6):
        if matching_contains(obstacle, m):
            continue
        coloring = circle_color(m, 3)
        checked += 1
        line = json.dumps([m.text(), [coloring[arc] for arc in m.arcs]])
        stream.update(line.encode() + b"\n")
        used = len(set(coloring.values())) if coloring else 0
        max_used = max(max_used, used)
        assert used <= bound
        for x in m.arcs:
            for y in m.arcs:
                if x < y and crosses(x, y):
                    assert coloring[x] != coloring[y]
    assert checked == CIRCLE_SWEEP_SUBJECTS
    assert max_used == CIRCLE_MAX_COLORS_USED
    assert stream.hexdigest() == CIRCLE_SWEEP_SHA256
    _report(
        5,
        f"{checked} matchings proper, max {max_used} colors "
        f"(literature optimum f(3)=5; bound {bound})",
    )


def test_acceptance_06_oneplus_pipeline():
    spec = SplittingSpec(((P("21"), 2),))
    base = dilworth_matching_base(3)
    pattern_132 = P("132")
    failures = 0
    checked = 0
    max_parts = 0
    max_used = 0
    stream = hashlib.sha256()
    for rho in avoiders_up_to({P("1432")}, 7):
        cert = oneplus_split(P("321"), spec, base, rho)
        checked += 1
        stream.update(json.dumps(cert.to_json_dict()).encode() + b"\n")
        if any(part != pattern_132 for part in cert.parts) or not merge_check(cert):
            failures += 1
        max_parts = max(max_parts, len(cert.parts))
        max_used = max(max_used, cert.colors_used())
    assert failures == 0
    assert max_parts <= 16**3 * 2
    assert max_parts == ONEPLUS_MAX_PARTS
    assert max_used == ONEPLUS_MAX_COLORS_USED
    assert stream.hexdigest() == ONEPLUS_STREAM_SHA256
    _report(
        6,
        f"{checked} subjects, 0 failures, max parts {max_parts} (bound {16**3 * 2})",
    )


def test_acceptance_07_theorem_end_to_end():
    # 1⊕σ for the 13 sum-indecomposable σ of order 4, 13524 among them
    order_four = [direct_sum(ONE, s).text() for s in all_perms(4) if sum_decompose(s) is None]
    hard = ("1342", "1423", "1432", *order_four)
    easy = ("2143", "1324", "2134")
    for text in hard + easy:
        pattern = P(text)
        plan = theorem_plan(pattern)
        for q, _mult in plan.spec.parts:
            assert contains(pattern, q) is None, f"witness contains {text}"
        report = verify_splitting(
            {pattern},
            plan.spec,
            7,
            splitter=lambda p, pat=pattern: theorem_certificate(pat, p),
        )
        assert report.passed, f"{text}: {report.failures[:3]}"
        assert report.fallbacks == 0, f"{text}: constructive path fell back"
    _report(
        7,
        f"{len(hard)} witness routes and {len(easy)} direct routes pass at n<=7, "
        "no oracle fallbacks",
    )


def test_acceptance_08_witness_construction_guarantees():
    sigmas = [
        p
        for n in (3, 4)
        for p in all_perms(n)
        if sum_decompose(p) is None
    ]
    assert len(sigmas) == 3 + 13
    tau_checked = 0
    for sigma in sigmas:
        target = direct_sum(ONE, sigma)
        for construct in (n_plus, n_minus):
            witness = construct(sigma)
            assert is_connected(witness)
            assert not matching_contains(m_of(sigma), witness)
        for n_matching in matchings_up_to(3):
            if matching_contains(m_of(sigma), n_matching):
                continue
            tau = tau_of(n_matching, sigma)
            assert contains(target, tau) is None
            tau_checked += 1
    _report(8, f"{len(sigmas)} sigmas verified, {tau_checked} tau_of runs, 0 failures")


def test_acceptance_09_oracle_self_consistency():
    # splitter success implies oracle success, across criteria 1, 6 and 7
    spec_1 = SplittingSpec.of(P("132"), P("213"))
    for p in avoiders_up_to({P("1324")}, 8):
        greedy_three_sum(ONE, P("21"), ONE, p)
        assert merge_member(p, spec_1) is not None

    base_spec = SplittingSpec(((P("21"), 2),))
    base = dilworth_matching_base(3)
    for rho in avoiders_up_to({P("1432")}, 7):
        cert = oneplus_split(P("321"), base_spec, base, rho)
        assert merge_member(rho, cert.parts) is not None

    for text in ("1342", "1423", "1432", "13524", "2143", "1324", "2134"):
        pattern = P(text)
        plan = theorem_plan(pattern)
        oracle_report = verify_splitting({pattern}, plan.spec, 6)
        assert oracle_report.passed

    # Dilworth base split: Av(4321) merges into three increasing classes
    dil_failures = 0
    dil_checked = 0
    for p in avoiders_up_to({P("4321")}, 8):
        cert = dilworth_split(4, p)
        dil_checked += 1
        if len(cert.parts) != 3 or not merge_check(cert):
            dil_failures += 1
    assert dil_failures == 0

    _report(
        9,
        f"oracle agrees across criteria 1/6/7; Dilworth {dil_checked} subjects",
    )


def test_acceptance_10_searches_and_classification():
    from permsplit.constructions import classify_pattern

    assert (
        amalgamation_search(
            {P("123")},
            MarkedPermutation(P("12"), 2),
            MarkedPermutation(P("12"), 1),
            8,
        )
        is None
    )
    assert unavoidable_witness({P("132")}, P("12"), P("12"), 4) == P("123")

    unsplittable = ("12", "21", "132", "213", "231", "312", "2413", "3142")
    for text in unsplittable:
        assert classify_pattern(P(text)).verdict == "unsplittable", text
    for p in all_perms(4):
        if p.text() in ("2 4 1 3", "3 1 4 2"):
            continue
        if sum_decompose(p) is not None or skew_decompose(p) is not None:
            assert classify_pattern(p).verdict == "splittable", p.text()
    invariant_checked = 0
    for n in range(1, 6):
        for p in all_perms(n):
            verdict = classify_pattern(p).verdict
            for image in SYMMETRIES.values():
                assert classify_pattern(image(p)).verdict == verdict
                invariant_checked += 1
    _report(
        10,
        f"amalgamation none at bound 8, witness 123, classification "
        f"symmetry-invariant over {invariant_checked} images",
    )

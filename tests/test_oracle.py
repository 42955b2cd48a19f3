from __future__ import annotations

from collections import Counter

import pytest
from conftest import brute_contains, matchings_up_to

from permsplit.errors import PreconditionError
from permsplit.matchings import m_of
from permsplit.oracle import (
    MarkedPermutation,
    VerificationReport,
    ama_coloring,
    amalgamation_search,
    merge_check,
    merge_member,
    unavoidable_witness,
    verify_splitting,
)
from permsplit.perms import EMPTY, Permutation, avoider_members, avoiders_up_to
from permsplit.splitters import (
    ColoringCertificate,
    SplittingSpec,
    dilworth_matching_base,
    greedy_three_sum,
    match_split,
)

P = Permutation.from_text
ONE = P("1")


def test_merge_check_examples():
    cert = greedy_three_sum(ONE, P("21"), ONE, P("2413"))
    assert merge_check(cert)
    bad = ColoringCertificate(subject=P("321"), parts=(P("21"),), colors=(0, 0, 0))
    assert not merge_check(bad)
    empty = ColoringCertificate(subject=EMPTY, parts=(P("21"),), colors=())
    assert merge_check(empty)


def test_merge_violations_locate_occurrences():
    from permsplit.oracle import merge_violations

    bad = ColoringCertificate(subject=P("321"), parts=(P("21"),), colors=(0, 0, 0))
    assert merge_violations(bad) == ["class 0 contains 2 1 at positions [1, 2]"]
    good = greedy_three_sum(ONE, P("21"), ONE, P("2413"))
    assert merge_violations(good) == []
    bad_m = ColoringCertificate(subject=m_of(P("21")), parts=(P("21"),), colors=(0, 0))
    assert merge_violations(bad_m) == ["class 0 contains m(2 1) on arcs 1-3 2-4"]


def test_merge_violations_on_permutations_locate_what_contains_finds():
    # avoids decides each class, and contains locates only the offending
    # ones; every message stays the one contains on every class gives.  The
    # parts reach every method of avoids: 12 and 21 the patience pass, 132
    # and 213 the k = 2 sweep, 1324 the I_a ⊕ D_2 ⊕ I_b tree, 2413 backtracking
    from itertools import permutations, product

    from permsplit.oracle import merge_violations
    from permsplit.perms import contains

    def contains_listing(cert):
        out = []
        for c, part in enumerate(cert.parts):
            positions = [i for i, col in enumerate(cert.colors, 1) if col == c]
            emb = contains(part, [cert.subject.values[i - 1] for i in positions])
            if emb is not None:
                where = [positions[j - 1] for j in emb.positions]
                out.append(f"class {c} contains {part.text()} at positions {where}")
        return out

    part_lists = [
        (P("21"), P("21")),
        (P("132"), P("213")),
        (P("12"), P("2413")),
        (P("1324"), P("21")),
    ]
    checked = offending = 0
    for n in range(6):
        for values in permutations(range(1, n + 1)):
            p = Permutation(values)
            for colors in product(range(2), repeat=n):
                for parts in part_lists:
                    cert = ColoringCertificate(subject=p, parts=parts, colors=colors)
                    want = contains_listing(cert)
                    assert merge_violations(cert) == want, (p.text(), colors, parts)
                    assert merge_check(cert) == (not want), (p.text(), colors, parts)
                    checked += 1
                    offending += bool(want)
    assert (checked, offending) == (17132, 10096)


def test_merge_violations_on_matchings_scan_only_classes_that_cross():
    # the nesting sweep clears an m(21) class before any subset scan; every
    # message stays the one the full scan of every class gives
    from itertools import product

    from permsplit.oracle import _submatching_occurrence, merge_violations

    def full_scan(cert):
        out = []
        for c, part in enumerate(cert.parts):
            arcs = [arc for arc, color in zip(cert.subject.arcs, cert.colors) if color == c]
            found = _submatching_occurrence(part, arcs)
            if found is not None:
                shown = " ".join(f"{a}-{b}" for a, b in found)
                out.append(f"class {c} contains m({part.text()}) on arcs {shown}")
        return out

    part_lists = [(P("21"), P("21")), (P("132"), P("21"))]
    offending = 0
    for m in matchings_up_to(5):
        for colors in product(range(2), repeat=len(m)):
            for parts in part_lists:
                cert = ColoringCertificate(subject=m, parts=parts, colors=colors)
                want = full_scan(cert)
                assert merge_violations(cert) == want, (m, colors, parts)
                offending += bool(want)
    assert offending


def test_merge_check_matching_subject():
    cert = match_split(m_of(P("21")), P("321"), m_of(P("321")), dilworth_matching_base(3))
    assert merge_check(cert)
    bad = ColoringCertificate(subject=m_of(P("21")), parts=(P("21"),), colors=(0, 0))
    assert not merge_check(bad)


def test_merge_check_decides_crossing_pair_classes_as_the_subset_scan_does():
    from itertools import combinations

    from permsplit.oracle import _submatching_occurrence

    # the arcs outside the subset form an order-6 class, which no matching
    # of at most 5 arcs contains, so the answer is the 21 class's alone
    parts = (P("21"), P("123456"))
    checked = 0
    for m in matchings_up_to(5):
        for size in range(len(m) + 1):
            for subset in combinations(range(len(m)), size):
                colors = tuple(0 if i in subset else 1 for i in range(len(m)))
                cert = ColoringCertificate(subject=m, parts=parts, colors=colors)
                scanned = _submatching_occurrence(P("21"), [m.arcs[i] for i in subset])
                assert merge_check(cert) == (scanned is None), (m.text(), subset)
                checked += 1
    assert checked == 1 + 2 + 3 * 4 + 15 * 8 + 105 * 16 + 945 * 32


def test_merge_check_catches_one_crossing_pair_given_one_colour():
    import random

    from conftest import dyck_321_avoider

    from permsplit.envelope import reduced_envelope
    from permsplit.matchings import crosses

    host = reduced_envelope(dyck_321_avoider(500, random.Random(3)))
    cert = match_split(host, P("321"), m_of(P("321")), dilworth_matching_base(3))
    assert merge_check(cert)
    arcs = host.arcs
    x, y = next((x, y) for x in range(len(arcs)) for y in range(x) if crosses(arcs[x], arcs[y]))
    colors = list(cert.colors)
    colors[y] = colors[x]
    mutated = ColoringCertificate(subject=host, parts=cert.parts, colors=tuple(colors))
    assert not merge_check(mutated)


def test_merge_member_examples():
    assert merge_member(P("321"), SplittingSpec(((P("21"), 2),))) is None
    cert = merge_member(P("321"), SplittingSpec(((P("21"), 3),)))
    assert cert is not None and merge_check(cert)
    assert len(set(cert.colors)) == 3
    cert = merge_member(P("2413"), SplittingSpec.of(P("132"), P("213")))
    assert cert is not None and merge_check(cert)
    assert merge_member(EMPTY, SplittingSpec.of(P("21"))) is not None
    # Av(ε) is empty: no element joins a class whose part is the empty pattern
    assert merge_member(P("21"), [EMPTY]) is None


def test_merge_member_agrees_with_membership_brute_force():
    # cross-check against an exhaustive scan over all two-colorings
    spec = SplittingSpec.of(P("12"), P("21"))
    for p in avoiders_up_to(set(), 5):
        expected = any(
            not brute_contains(
                P("12"),
                _reduce([v for i, v in enumerate(p.values) if mask >> i & 1]),
            )
            and not brute_contains(
                P("21"),
                _reduce([v for i, v in enumerate(p.values) if not mask >> i & 1]),
            )
            for mask in range(1 << len(p))
        )
        got = merge_member(p, spec)
        assert (got is not None) == expected
        if got is not None:
            assert merge_check(got)


def _reduce(vals):
    rank = {v: i + 1 for i, v in enumerate(sorted(vals))}
    return Permutation(tuple(rank[v] for v in vals))


# SHA-256 of the JSON stream of merge_member certificates over Av_{<=7}(1432)
# into theorem_split(1432), recorded before merge_member moved onto
# perms.ends_with_occurrence
MERGE_MEMBER_1432_SHA256 = "6d88060c402d4a50ecad4bd14c0c7819a942869873d5b5238fe27625642b8afd"


def test_merge_member_certificates_are_pinned():
    import hashlib
    import json

    from permsplit.constructions import theorem_split

    spec = theorem_split(P("1432"))
    digest = hashlib.sha256()
    for p in avoiders_up_to({P("1432")}, 7):
        digest.update(json.dumps(merge_member(p, spec).to_json_dict()).encode() + b"\n")
    assert digest.hexdigest() == MERGE_MEMBER_1432_SHA256


def test_merge_member_monotone_in_spec():
    small = SplittingSpec.of(P("12"), P("21"))
    bigger = SplittingSpec(((P("12"), 1), (P("21"), 2)))
    for p in avoiders_up_to(set(), 5):
        if merge_member(p, small) is not None:
            assert merge_member(p, bigger) is not None


def test_verify_splitting_examples():
    report = verify_splitting({P("123")}, SplittingSpec(((P("12"), 2),)), 6)
    assert report.passed
    assert report.checked == sum(
        1 for _ in avoiders_up_to({P("123")}, 6)
    )
    report = verify_splitting({P("123")}, SplittingSpec.of(P("12")), 2)
    assert not report.passed
    assert report.failures[0][0] == "1 2"


def test_verify_splitting_is_bound_limited():
    # Av(231) is unsplittable, yet every member of order <= 6 merges into
    # {Av(123), Av(132)}: the least counterexample has order 7
    spec = SplittingSpec.of(P("123"), P("132"))
    report = verify_splitting({P("231")}, spec, 6)
    assert (report.passed, report.checked) == (True, 197)
    report = verify_splitting({P("231")}, spec, 7)
    assert (report.passed, report.checked) == (False, 626)
    assert report.failures[0] == ("1 3 2 5 4 7 6", "no merge into the spec exists")


def test_verify_splitting_uses_splitter_fast_path():
    calls = []

    def splitter(p):
        calls.append(p)
        return greedy_three_sum(ONE, P("21"), ONE, p)

    report = verify_splitting(
        {P("1324")}, SplittingSpec.of(P("132"), P("213")), 5, splitter=splitter
    )
    assert report.passed and calls
    assert report.fallbacks == 0
    # a splitter whose precondition fails falls back to the oracle, visibly
    report = verify_splitting(
        {P("1324")},
        SplittingSpec.of(P("132"), P("213")),
        4,
        splitter=lambda p: (_ for _ in ()).throw(PreconditionError("not mine")),
    )
    assert report.passed
    assert report.fallbacks == report.checked
    # a splitter that crashes fails every subject it crashed on, and the sweep goes on
    report = verify_splitting(
        {P("1324")},
        SplittingSpec.of(P("132"), P("213")),
        4,
        splitter=lambda p: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    assert not report.passed
    assert len(report.failures) == report.checked
    assert report.failures[0] == ("ε", "splitter raised RuntimeError: boom")
    assert report.fallbacks == 0
    # Av(123) does not merge into {Av(12)}: on "1 2" the oracle finds no merge,
    # and the failure also names what is wrong with the splitter's certificate
    report = verify_splitting(
        {P("123")},
        SplittingSpec.of(P("12")),
        2,
        splitter=lambda p: ColoringCertificate(p, (P("12"),), (0,) * len(p)),
    )
    assert report.checked == 4 and report.fallbacks == 1
    assert report.failures == [
        (
            "1 2",
            "no merge into the spec exists; splitter certificate invalid: "
            "class 0 contains 1 2 at positions [1, 2]",
        )
    ]
    # a certificate whose classes avoid their parts but whose parts are not
    # the spec's is invalid too, and the failure names the parts outside it
    report = verify_splitting(
        {P("123")},
        SplittingSpec.of(P("12")),
        2,
        splitter=lambda p: ColoringCertificate(p, (P("21"),), (0,) * len(p)),
    )
    assert report.checked == 4 and report.fallbacks == 4
    assert report.failures == [
        (
            "1 2",
            "no merge into the spec exists; splitter certificate invalid: "
            "parts outside the spec: 2 1",
        )
    ]


def _reference_report(class_basis, spec, n_max, splitter=None) -> VerificationReport:
    """verify_splitting with a merge_member search from scratch per member."""
    from permsplit.oracle import merge_violations

    spec_counts = Counter(spec.flatten())
    report = VerificationReport()
    for p in avoiders_up_to(class_basis, n_max):
        report.checked += 1
        constructive = None
        if splitter is not None:
            try:
                constructive = splitter(p)
            except PreconditionError:
                pass
            except Exception as exc:
                report.failures.append((p.text(), f"splitter raised {type(exc).__name__}: {exc}"))
                continue
        if constructive is not None:
            wrong = merge_violations(constructive)
            surplus = Counter(constructive.parts) - spec_counts
            if surplus:
                wrong.append("parts outside the spec: " + ", ".join(q.text() for q in surplus))
            if not wrong:
                report.max_colors_used = max(report.max_colors_used, constructive.colors_used())
                continue
        if splitter is not None:
            report.fallbacks += 1
        cert = merge_member(p, spec)
        if cert is None:
            detail = "no merge into the spec exists"
            if constructive is not None:
                detail += "; splitter certificate invalid: " + "; ".join(wrong)
            report.failures.append((p.text(), detail))
        else:
            report.max_colors_used = max(report.max_colors_used, cert.colors_used())
    return report


def _theorem_on_even_orders(p):
    from permsplit.constructions import theorem_certificate

    if len(p) % 2:
        raise PreconditionError("odd order")
    return theorem_certificate(P("1432"), p)


def _all_in_one_class_but_order_two(p):
    if len(p) == 2:
        raise RuntimeError("boom")
    return ColoringCertificate(p, (P("12"),), (0,) * len(p))


def _theorem_spec():
    from permsplit.constructions import theorem_split

    return theorem_split(P("1432"))


@pytest.mark.parametrize(
    "basis, spec, n_max, splitter",
    [
        ("1432", _theorem_spec, 7, None),
        # Av(123) does not merge into {Av(12)}: children of failures fail
        ("123", lambda: SplittingSpec.of(P("12")), 5, None),
        # identical parts: the interchangeable-twin rule
        ("321", lambda: SplittingSpec(((P("21"), 2),)), 7, None),
        # children of members the splitter handled search from scratch
        ("1432", _theorem_spec, 7, _theorem_on_even_orders),
        # invalid certificates fall back; children of a crash search from scratch
        ("123", lambda: SplittingSpec.of(P("12")), 5, _all_in_one_class_but_order_two),
        # 452 failures over orders 3-6, most of them children of failed
        # parents: the report lists them size-then-lex, not in walk order
        ("1324", lambda: SplittingSpec.of(P("132")), 6, None),
        # a basis of two elements, into identical parts
        ("2413 3142", lambda: SplittingSpec(((P("21"), 2),)), 7, None),
        # 213's completing intervals are open above, (a, inf)
        ("1324", lambda: SplittingSpec.of(P("132"), P("213")), 7, None),
        # the singleton part's one interval is (-inf, inf): its class stays empty
        ("321", lambda: SplittingSpec(((P("1"), 1), (P("21"), 2))), 6, None),
        # the second colour is first used at the last order (by 2 1): the
        # parent 1's bound, 2, is above widest, 1, so its first step is taken
        ("321", lambda: SplittingSpec(((P("21"), 2),)), 2, None),
    ],
)
def test_verify_splitting_matches_a_search_from_scratch_per_member(
    monkeypatch, basis, spec, n_max, splitter
):
    from permsplit import oracle

    # every colouring verify derives, resumed searches and first steps alike,
    # keyed by the member's values, to hold against merge_member's
    found = {}
    stepped = []
    listed = []  # one entry per completing_intervals call
    make_search = oracle._merge_search
    list_intervals = oracle.completing_intervals

    def recording(parts):
        search, first_steps, settled = make_search(parts)

        def colors(values, start=(), c=0):
            found[values] = search(values, start, c)
            return found[values]

        def recorded_first_steps(q, start, lasts):
            lasts, before = list(lasts), len(listed)
            takes, left = first_steps(q, start, lasts)
            # classes are tried only while some last value is left
            reached = max((c + 1 for c, taken in enumerate(takes) if taken), default=0)
            assert len(listed) - before <= (len(parts) if left else reached)
            # every last value is taken by one class or left for the search
            everyone = 0
            for mask in (*takes, left):
                assert not everyone & mask
                everyone |= mask
            assert everyone == sum(1 << last for last in lasts)
            # verify derives (*start, c) for a child class c takes, with no
            # values of its own
            for c, taken in enumerate(takes):
                for last in lasts:
                    if taken >> last & 1:
                        child = avoider_members((q,), (last,), (0, 1))[0]
                        found[child] = (*start, c)
                        stepped.append(child)
            return takes, left

        return colors, recorded_first_steps, settled

    spec = spec()
    monkeypatch.setattr(oracle, "_merge_search", recording)
    monkeypatch.setattr(
        oracle, "completing_intervals", lambda *args: listed.append(args) or list_intervals(*args)
    )
    basis = {P(b) for b in basis.split()}
    got = verify_splitting(basis, spec, n_max, splitter=splitter)
    monkeypatch.undo()
    want = _reference_report(basis, spec, n_max, splitter=splitter)
    assert got.to_json_dict() == want.to_json_dict()
    assert found and got.checked > n_max
    assert stepped or splitter is not None
    for values, colors in found.items():
        cert = merge_member(Permutation(values), spec)
        assert colors == (None if cert is None else cert.colors), values


def test_first_steps_decide_every_child_and_stop_when_none_is_left(monkeypatch):
    # q = 2 1 coloured (0, 1) into (12, 21): the children end in 0.5, 1.5
    # or 2.5 (last values 1, 2, 3); 12 takes 0.5 and 1.5, and 21 takes 2.5
    from permsplit import oracle

    listed = []
    list_intervals = oracle.completing_intervals
    monkeypatch.setattr(
        oracle, "completing_intervals", lambda *args: listed.append(args) or list_intervals(*args)
    )
    first_steps = oracle._merge_search((P("12"), P("21")))[1]
    assert first_steps((2, 1), (0, 1), [1, 2, 3]) == ([0b0110, 0b1000], 0)
    assert listed == [((1, 2), [2]), ((2, 1), [1])]
    # once class 0 takes every child, class 1 is not listed
    assert first_steps((2, 1), (0, 1), [1, 2]) == ([0b0110, 0], 0)
    assert first_steps((2, 1), (0, 1), []) == ([0, 0], 0)
    assert len(listed) == 3
    # 2 1 in one class of (12, 12): its twin, still empty, takes what is
    # left with no list of its own
    first_steps = oracle._merge_search((P("12"), P("12")))[1]
    assert first_steps((2, 1), (0, 0), [1, 2, 3]) == ([0b0010, 0b1100], 0)
    assert len(listed) == 4


def test_verify_splitting_resumes_each_search_at_the_parent(monkeypatch):
    # merge_member from scratch on every member of Av_{<=8}(1432) makes
    # 151,547 occurrence searches; verify makes one interval search per
    # class that a child reaches, and no child needs more than that step.
    # At the last order it makes none for a parent with a class shorter
    # than its pattern's order minus one, whose children all merge
    # and use no more colours than widest already counts: 639 lists, not
    # the 3,400 that every parent's first step would make
    from permsplit import oracle

    calls = Counter()

    def counted(name):
        search = getattr(oracle, name)

        def call(*args):
            calls[name] += 1
            return search(*args)

        return call

    for name in ("ends_with_occurrence", "completing_intervals"):
        monkeypatch.setattr(oracle, name, counted(name))
    report = verify_splitting({P("1432")}, _theorem_spec(), 8)
    assert report.to_json_dict() == {
        "checked": 19177, "failures": [], "max_colors_used": 2, "fallbacks": 0, "pass": True,
    }
    assert calls == {"completing_intervals": 639}


def test_verify_splitting_settles_last_order_parents_with_a_short_class(monkeypatch):
    # Av(321) into (21, 21): a class of 21 is shorter than 21's order minus
    # one while it is empty, and class 1 opens once class 0 has an element
    from permsplit import oracle

    settled = oracle._merge_search((P("21"), P("21")))[2]
    # ε: class 0 is open and empty; 1 and 1 2 in class 0: class 1 is;
    # 2 1 coloured (0, 1): no class is empty
    assert [settled(start) for start in ((), (0,), (0, 0), (0, 1))] == [1, 2, 2, None]
    listed = []
    list_intervals = oracle.completing_intervals
    monkeypatch.setattr(
        oracle, "completing_intervals", lambda *args: listed.append(args) or list_intervals(*args)
    )
    spec = SplittingSpec(((P("21"), 2),))
    # n_max = 2: the parent 1, coloured (0,), bounds its children at 2
    # colours, above widest (1, from the child 1): its first step lists
    # class 0's intervals, and 2 1 takes class 1 and raises widest to 2
    report = verify_splitting({P("321")}, spec, 2)
    assert (report.checked, report.max_colors_used) == (4, 2)
    assert listed == [((2, 1), [1])]
    # n_max = 3: widest is 2 once order 2 is stepped.  2 1, coloured (0, 1),
    # lists both classes; 1 2, coloured (0, 0), bounds its children at
    # 2 <= widest and lists none, where its first step would list ((2, 1), [1, 2])
    listed.clear()
    report = verify_splitting({P("321")}, spec, 3)
    assert report.to_json_dict() == {
        "checked": 9, "failures": [], "max_colors_used": 2, "fallbacks": 0, "pass": True,
    }
    assert listed == [((2, 1), [1]), ((2, 1), [2]), ((2, 1), [1])]


def test_report_json():
    report = VerificationReport(checked=3, failures=[("2 1", "why")], max_colors_used=2)
    d = report.to_json_dict()
    assert d == {
        "checked": 3,
        "failures": [{"subject": "2 1", "detail": "why"}],
        "max_colors_used": 2,
        "fallbacks": 0,
        "pass": False,
    }


def test_unavoidable_witness_examples():
    assert unavoidable_witness({P("132")}, P("12"), P("12"), 4) == P("123")
    assert unavoidable_witness(set(), ONE, ONE, 1) == ONE
    # pinned: no witness for τ=21, π=12 within Av(132) up to order 3
    assert unavoidable_witness({P("132")}, P("21"), P("12"), 3) is None


def test_amalgamation_search_examples():
    found = amalgamation_search(
        {P("132")}, MarkedPermutation(P("12"), 1), MarkedPermutation(P("21"), 2), 4
    )
    assert found is not None
    sigma, g1, g2 = found
    assert sigma == P("213")
    assert g1.positions[0] == g2.positions[1] == 2

    assert (
        amalgamation_search(
            {P("123")}, MarkedPermutation(P("12"), 2), MarkedPermutation(P("12"), 1), 8
        )
        is None
    )

    overlay = amalgamation_search(
        set(), MarkedPermutation(P("21"), 1), MarkedPermutation(P("12"), 2), 4
    )
    assert overlay is not None


def test_marked_permutation_validation():
    with pytest.raises(ValueError):
        MarkedPermutation(P("21"), 3)
    with pytest.raises(ValueError):
        MarkedPermutation(P("21"), 0)


def test_ama_coloring_examples():
    cert = ama_coloring(P("123"), MarkedPermutation(P("12"), 2))
    assert cert.colors == (0, 1, 1)
    cert = ama_coloring(P("321"), MarkedPermutation(P("12"), 2))
    assert cert.colors == (0, 0, 0)
    assert ama_coloring(EMPTY, MarkedPermutation(P("1"), 1)).colors == ()


def test_ama_coloring_red_class_avoids_pattern():
    from permsplit.perms import all_perms

    for n in range(1, 7):
        for sigma in all_perms(n):
            for mark_pattern in (P("12"), P("21"), P("132")):
                if len(mark_pattern) > n:
                    continue
                for mark in range(1, len(mark_pattern) + 1):
                    cert = ama_coloring(sigma, MarkedPermutation(mark_pattern, mark))
                    red = [
                        v for v, c in zip(sigma.values, cert.colors) if c == 0
                    ]
                    assert not brute_contains(mark_pattern, _reduce(red))

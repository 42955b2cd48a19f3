from __future__ import annotations

import pytest
from conftest import EMPTY_MATCHING, all_matchings, brute_contains, matchings_up_to

from permsplit.errors import PreconditionError, VerificationError
from permsplit.matchings import (
    Matching,
    crosses,
    m_of,
    matching_contains,
    weight,
)
from permsplit.perms import EMPTY, Permutation, avoiders_up_to
from permsplit.splitters import (
    ColoringCertificate,
    MatchingBase,
    MatchingSplitState,
    SplittingSpec,
    circle_color,
    dilworth_matching_base,
    dilworth_split,
    easy_split_parts,
    greedy_colors,
    greedy_three_sum,
    match_split,
    oneplus_split,
)

P = Permutation.from_text
M = Matching.from_text
ONE = P("1")


def perm_class_values(cert: ColoringCertificate, c: int) -> Permutation:
    vals = [v for v, color in zip(cert.subject.values, cert.colors) if color == c]
    rank = {v: i + 1 for i, v in enumerate(sorted(vals))}
    return Permutation(tuple(rank[v] for v in vals))


def matching_class(cert: ColoringCertificate, c: int) -> Matching:
    return Matching.from_arcs(
        [arc for arc, color in zip(cert.subject.arcs, cert.colors) if color == c]
    )


def brute_valid(cert: ColoringCertificate) -> bool:
    if isinstance(cert.subject, Permutation):
        return all(
            not brute_contains(part, perm_class_values(cert, c))
            for c, part in enumerate(cert.parts)
        )
    return all(
        not matching_contains(m_of(part), matching_class(cert, c))
        for c, part in enumerate(cert.parts)
    )


def test_spec_multiset_and_parsing_rules():
    spec = SplittingSpec(((P("132"), 2), (P("213"), 1)))
    assert spec.flatten() == (P("132"), P("132"), P("213"))
    assert spec.flatten() is spec.flatten()
    # the kept part list is no field: a flattened spec still equals and
    # hashes as its twin
    twin = SplittingSpec(((P("132"), 2), (P("213"), 1)))
    assert spec == twin and hash(spec) == hash(twin) and {spec: 1}[twin] == 1
    assert spec != SplittingSpec(((P("132"), 1), (P("213"), 1)))
    assert spec.text() == "2*1 3 2,2 1 3"
    with pytest.raises(ValueError):
        SplittingSpec(())
    with pytest.raises(ValueError):
        SplittingSpec(((EMPTY, 1),))


def test_certificate_json_round_trip():
    cert = greedy_three_sum(ONE, P("21"), ONE, P("2413"))
    again = ColoringCertificate.from_json_dict(cert.to_json_dict())
    assert again == cert
    # the part texts are shared between calls: a caller's edit stays its own
    first = cert.to_json_dict()
    first["parts"].append("1")
    first["parts"][0] = "2 1"
    assert cert.to_json_dict() == {
        "subject": "2 4 1 3",
        "parts": ["1 3 2", "2 1 3"],
        "colors": [0, 0, 0, 1],
    }
    mcert = match_split(m_of(P("21")), P("321"), m_of(P("321")), dilworth_matching_base(3))
    again = ColoringCertificate.from_json_dict(mcert.to_json_dict())
    assert again == mcert
    # the empty permutation prints as "ε", the empty matching as ""
    for empty in (
        greedy_three_sum(ONE, P("21"), ONE, EMPTY),
        match_split(EMPTY_MATCHING, P("21"), m_of(P("21")), dilworth_matching_base(2)),
    ):
        again = ColoringCertificate.from_json_dict(empty.to_json_dict())
        assert again == empty and type(again.subject) is type(empty.subject)


def test_certificate_validation():
    parts = (P("21"), P("12"))
    for colors in ((0, -1, 1), (0, 2, 1), (0, 1), (0, 1, 0, 1)):
        with pytest.raises(ValueError):
            ColoringCertificate(subject=P("321"), parts=parts, colors=colors)
    with pytest.raises(ValueError):
        ColoringCertificate(subject=m_of(P("21")), parts=parts, colors=(0, 2))
    assert ColoringCertificate(subject=EMPTY, parts=parts, colors=()).colors_used() == 0
    assert ColoringCertificate(subject=P("321"), parts=parts, colors=(1, 0, 1)).colors == (1, 0, 1)


def test_greedy_examples():
    cert = greedy_three_sum(ONE, P("21"), ONE, P("2413"))
    assert cert.colors == (0, 0, 0, 1)
    assert cert.parts == (P("132"), P("213"))
    assert greedy_colors(cert.parts[0], P("2413")) == cert.colors
    assert greedy_three_sum(ONE, P("21"), ONE, P("321")).colors == (0, 0, 0)
    assert greedy_three_sum(ONE, ONE, ONE, P("21")).colors == (0, 0)
    assert greedy_three_sum(ONE, P("21"), ONE, EMPTY).colors == ()
    with pytest.raises(PreconditionError):
        greedy_three_sum(ONE, P("21"), ONE, P("1324"))
    with pytest.raises(PreconditionError):
        greedy_three_sum(EMPTY, P("21"), ONE, P("321"))


def test_greedy_sweep_is_valid_and_red_prefix_invariant():
    basis = {P("1324")}
    ab = P("132")
    for p in avoiders_up_to(basis, 6):
        cert = greedy_three_sum(ONE, P("21"), ONE, p)
        assert brute_valid(cert)
        red: list[int] = []
        for v, color in zip(p.values, cert.colors):
            if color == 0:
                red.append(v)
                rank = {u: i + 1 for i, u in enumerate(sorted(red))}
                assert not brute_contains(ab, Permutation(tuple(rank[u] for u in red)))


def test_easy_split_parts_examples():
    assert easy_split_parts(P("21"), P("21")) == SplittingSpec.of(P("213"), P("132"))
    assert easy_split_parts(P("12"), P("12")) == SplittingSpec.of(P("123"), P("123"))
    assert easy_split_parts(P("21"), P("12")) == SplittingSpec.of(P("213"), P("123"))
    with pytest.raises(PreconditionError):
        easy_split_parts(ONE, P("21"))


def test_dilworth_examples():
    assert dilworth_split(3, P("231")).colors == (0, 0, 1)
    assert dilworth_split(3, P("123")).colors == (0, 0, 0)
    assert dilworth_split(4, P("321")).colors == (0, 1, 2)
    assert dilworth_split(3, P("231")).parts == (P("21"), P("21"))
    with pytest.raises(PreconditionError):
        dilworth_split(3, P("321"))
    with pytest.raises(PreconditionError, match="at least 1"):
        dilworth_split(0, P("1"))


def _longest_decreasing_ending_at(vals):
    # the quadratic reference: each element extends every higher earlier one
    lengths = [1] * len(vals)
    for i in range(len(vals)):
        for j in range(i):
            if vals[j] > vals[i]:
                lengths[i] = max(lengths[i], lengths[j] + 1)
    return lengths


def test_dilworth_colors_match_the_quadratic_reference():
    import random

    from permsplit.perms import all_perms

    rng = random.Random(1)
    hosts = [p for m in range(8) for p in all_perms(m)]
    hosts += [Permutation(tuple(rng.sample(range(1, 201), 200))) for _ in range(20)]
    for p in hosts:
        lengths = _longest_decreasing_ending_at(p.values)
        longest = max(lengths, default=0)
        cert = dilworth_split(longest + 1, p)
        assert cert.colors == tuple(ln - 1 for ln in lengths), p
        if longest:
            with pytest.raises(PreconditionError):
                dilworth_split(longest, p)


def test_dilworth_sweep_small():
    for p in avoiders_up_to({P("321")}, 6):
        cert = dilworth_split(3, p)
        assert brute_valid(cert)


def test_dilworth_matching_base():
    base = dilworth_matching_base(3)
    cert = base(m_of(P("21")))
    assert cert.colors == (0, 1) or cert.colors == (1, 0)
    # crossing arcs correspond to an inversion, so they get distinct colors
    assert len(set(cert.colors)) == 2
    assert base(EMPTY_MATCHING).colors == ()
    # 1-2 3-4 is no permutation matching: a left endpoint follows a right one
    with pytest.raises(VerificationError, match="permutation matching"):
        base(M("1-2 3-4"))
    # a colorer whose part list is not the base's
    wrong = MatchingBase(
        parts=(P("21"),),
        fn=lambda m: ColoringCertificate(subject=m, parts=(P("1"),), colors=(0,) * len(m)),
    )
    with pytest.raises(VerificationError, match="fixed part list"):
        wrong(M("1-2"))


def test_match_split_trivial_and_small():
    base = dilworth_matching_base(3)
    obstacle = m_of(P("321"))
    cert = match_split(EMPTY_MATCHING, P("321"), obstacle, base)
    assert cert.colors == () and cert.parts == ()

    cert = match_split(m_of(P("21")), P("321"), obstacle, base)
    assert brute_valid(cert)
    a, b = cert.colors
    assert a != b  # the two arcs cross, classes must be crossing-free

    chain = M("1-3 2-5 4-6")
    cert = match_split(chain, P("321"), obstacle, base)
    assert brute_valid(cert)
    assert len(cert.parts) <= 4**6 * 2


def test_match_split_preconditions():
    base = dilworth_matching_base(3)
    with pytest.raises(PreconditionError):
        match_split(m_of(P("321")), P("321"), m_of(P("321")), base)


def test_match_split_trace_weights_decrease():
    base = dilworth_matching_base(3)
    obstacle = m_of(P("321"))
    for m in matchings_up_to(4):
        if matching_contains(obstacle, m):
            continue
        state = MatchingSplitState(pattern_basis=P("321"), obstacle=obstacle)
        match_split(m, P("321"), obstacle, base, state=state)
        stack: list[tuple[int, int]] = []  # (depth, weight)
        for depth, _case, w, _copies in state.trace:
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if stack:
                assert w < stack[-1][1]
            stack.append((depth, w))


def test_match_split_sweep_validates():
    base = dilworth_matching_base(3)
    obstacle = m_of(P("321"))
    for m in matchings_up_to(4):
        if matching_contains(obstacle, m):
            continue
        cert = match_split(m, P("321"), obstacle, base)
        assert brute_valid(cert)
        assert len(cert.parts) <= 4 ** weight(obstacle) * 2


# SHA-256 of the [arcs, colours, part count, trace] JSON lines of match_split
# on every triangle-free 6-arc matching against the obstacle m(321), recorded
# before each obstacle's step became a cached plan and lone arcs stopped
# recursing.  These hosts reach the obstacle chain below m(321).
TRIANGLE_FREE_SWEEP_SHA256 = "80e098d87e5c6562c3a0babc06953de330f38540fa9e94b8887e695d8882e929"


def test_match_split_triangle_free_sweep_traces_are_pinned():
    import hashlib
    import json

    pattern, base = P("321"), dilworth_matching_base(3)
    obstacle = m_of(pattern)
    digest = hashlib.sha256()
    count = 0
    for m in all_matchings(6):
        if matching_contains(obstacle, m):
            continue
        state = MatchingSplitState(pattern_basis=pattern, obstacle=obstacle)
        cert = match_split(m, pattern, obstacle, base, state=state)
        line = json.dumps([m.text(), list(cert.colors), len(cert.parts), state.trace])
        digest.update(line.encode() + b"\n")
        count += 1
    assert count == 4719
    assert digest.hexdigest() == TRIANGLE_FREE_SWEEP_SHA256


def _sampled_k4_free_matchings(count: int, seed: int) -> list[Matching]:
    """Seeded uniform matchings with 7 or 8 arcs and no 4 pairwise crossing
    arcs, by rejection."""
    import random

    rng = random.Random(seed)
    clique = m_of(P("4321"))
    out: list[Matching] = []
    while len(out) < count:
        points = list(range(1, 2 * (7 + len(out) % 2) + 1))
        rng.shuffle(points)
        m = Matching.from_arcs(zip(points[::2], points[1::2]))
        if not matching_contains(clique, m):
            out.append(m)
    return out


# SHA-256 of the [arcs, colours, part count, trace] JSON lines below, recorded
# before match_split stopped rebuilding matchings per recursion node.  The
# m(2413)-avoiders reach ⊎-decomposable obstacles, which decreasing ones never do.
MATCH_SPLIT_SHA256 = "6e2147d8563c1f68a5ed16ef3c4ac76dd310d0ab1e0da8228e7a62507239b641"


def test_match_split_colorings_and_traces_are_pinned():
    import hashlib
    import json

    k4_free = _sampled_k4_free_matchings(150, 2013)
    obstacle_2413 = m_of(P("2413"))
    avoid_2413 = [m for m in matchings_up_to(5) if not matching_contains(obstacle_2413, m)]
    digest = hashlib.sha256()
    for pattern, base, hosts in (
        (P("4321"), dilworth_matching_base(4), k4_free),
        (P("2413"), dilworth_matching_base(6), avoid_2413),
    ):
        obstacle = m_of(pattern)
        for m in hosts:
            state = MatchingSplitState(pattern_basis=pattern, obstacle=obstacle)
            cert = match_split(m, pattern, obstacle, base, state=state)
            assert len(cert.parts) <= 4 ** weight(obstacle) * len(base.parts)
            # every base part is 21, so each colour class is crossing-free
            for x, cx in zip(m.arcs, cert.colors):
                for y, cy in zip(m.arcs, cert.colors):
                    assert not (x < y and crosses(x, y) and cx == cy)
            line = json.dumps([m.text(), list(cert.colors), len(cert.parts), state.trace])
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == MATCH_SPLIT_SHA256


def test_oneplus_examples():
    spec = SplittingSpec(((P("21"), 2),))
    base = dilworth_matching_base(3)
    cert = oneplus_split(P("321"), spec, base, P("3142"))
    assert all(part == P("132") for part in cert.parts)
    classes = {c: perm_class_values(cert, c) for c in set(cert.colors)}
    assert sorted(q.text() for q in classes.values()) == ["1", "2 1 3"]

    cert = oneplus_split(P("321"), spec, base, P("4321"))
    assert set(cert.colors) == {0}
    assert perm_class_values(cert, 0) == P("4321")

    cert = oneplus_split(P("321"), spec, base, EMPTY)
    assert cert.colors == ()

    with pytest.raises(PreconditionError):
        oneplus_split(P("321"), spec, base, P("1432"))
    with pytest.raises(PreconditionError):
        oneplus_split(P("123"), spec, base, P("21"))
    # dilworth_matching_base(4) has three parts 21, the spec two
    with pytest.raises(PreconditionError, match="colorer parts"):
        oneplus_split(P("321"), spec, dilworth_matching_base(4), P("21"))


def test_oneplus_sweep_small():
    from permsplit.envelope import reduced_envelope_map
    from permsplit.perms import lr_minima

    spec = SplittingSpec(((P("21"), 2),))
    base = dilworth_matching_base(3)
    obstacle = m_of(P("321"))
    for rho in avoiders_up_to({P("1432")}, 6):
        cert = oneplus_split(P("321"), spec, base, rho)
        assert brute_valid(cert)
        # class 0 holds every LR-minimum
        for pos in lr_minima(rho):
            assert cert.colors[pos - 1] == 0
        # stripped of LR-minima, class i is exactly the arcs colored i
        reduced, positions = reduced_envelope_map(rho)
        arc_cert = match_split(reduced, P("321"), obstacle, base)
        for j, pos in enumerate(positions):
            assert cert.colors[pos - 1] == arc_cert.colors[j]


def test_circle_color_examples():
    assert len(set(circle_color(M("1-3 2-4"), 3).values())) == 2
    assert len(set(circle_color(M("1-2 3-4"), 3).values())) == 1
    with pytest.raises(PreconditionError):
        circle_color(m_of(P("321")), 3)


def test_entry_points_reject_a_host_containing_the_obstacle():
    # the entry searches are the only obstacle checks at the recursion root
    base = dilworth_matching_base(3)
    triangle = m_of(P("321"))
    for m in matchings_up_to(4):
        if not matching_contains(triangle, m):
            continue
        with pytest.raises(PreconditionError):
            match_split(m, P("321"), triangle, base)
        with pytest.raises(PreconditionError):
            circle_color(m, 3)
    # an obstacle other than m(pattern) is searched for on its own
    with pytest.raises(PreconditionError, match="obstacle"):
        match_split(M("1-3 2-4"), P("321"), m_of(P("21")), base)


def test_match_split_checks_its_preconditions_once_per_pattern_and_base(monkeypatch):
    from permsplit import splitters

    calls = []
    for name in ("m_of", "sum_decompose"):
        real = getattr(splitters, name)
        counted = lambda *args, real=real, name=name: calls.append(name) or real(*args)
        monkeypatch.setattr(splitters, name, counted)
    splitters._pattern_matching.cache_clear()
    pattern = P("4321")
    obstacle, base = m_of(pattern), dilworth_matching_base(4)
    for m in ("1-3 2-4", "1-2 3-4", "1-4 2-5 3-6"):
        match_split(M(m), pattern, obstacle, base)
    assert sorted(calls) == ["m_of"] + ["sum_decompose"] * 3  # base 4 has three parts
    # both messages stay; a decomposable part is refused before any search
    with pytest.raises(PreconditionError, match="sum-indecomposable"):
        match_split(M("1-2"), P("21"), m_of(P("21")), MatchingBase((P("12"),), base.fn))
    with pytest.raises(PreconditionError, match="host contains m"):
        match_split(M("1-3 2-4"), P("21"), m_of(P("21")), base)


def test_circle_color_proper_small():
    obstacle = m_of(P("321"))
    for m in matchings_up_to(4):
        if matching_contains(obstacle, m):
            continue
        coloring = circle_color(m, 3)
        for x in m.arcs:
            for y in m.arcs:
                if x < y and crosses(x, y):
                    assert coloring[x] != coloring[y]


def _rescan_greedy_colors(red: Permutation, p: Permutation) -> tuple[int, ...]:
    """The greedy scan as first written: one search for an occurrence of
    `red` through each new element over the whole red class."""
    from permsplit.perms import ends_with_occurrence

    red_vals: list[int] = []
    blue_min = len(p) + 1
    colors: list[int] = []
    for v in p.values:
        red_vals.append(v)
        if blue_min < v or ends_with_occurrence(red.values, red_vals):
            red_vals.pop()
            colors.append(1)
            blue_min = min(blue_min, v)
        else:
            colors.append(0)
    return tuple(colors)


def _route_a_reds() -> dict[Permutation, Permutation]:
    """Each red part α⊕1 of a route-a pattern of order 4-6, mapped to the
    first pattern that has it."""
    from permsplit.constructions import theorem_plan
    from permsplit.errors import PreconditionError
    from permsplit.perms import all_perms

    reds: dict[Permutation, Permutation] = {}
    for m in (4, 5, 6):
        for pattern in all_perms(m):
            try:
                plan = theorem_plan(pattern)
            except PreconditionError:
                continue
            if plan.route == "a":
                reds.setdefault(plan.spec.flatten()[0], pattern)
    return reds


def test_greedy_thresholds_match_the_rescan():
    # a route-a red part Y ⊕ I_j runs on thresholds; both bodies colour alike
    # on every permutation of order <= 5, on Av_7 of each route-a pattern of
    # order 4-5 and on one seeded host of order 30-500 per family.  (The
    # rescan itself backtracks for seconds per host on 321-avoiders of order
    # ~300 when Y contains 321, so the large hosts are one per family.)
    from conftest import seeded_hosts

    from permsplit.perms import all_perms, enumerate_avoiders

    reds = _route_a_reds()
    assert len(reds) == 22 and {len(r) for r in reds} == {3, 4, 5}
    assert any(r.values[-2] != len(r) - 1 for r in reds)  # some Y ≠ ε
    small = [p for n in range(6) for p in all_perms(n)]
    large = seeded_hosts(2134, 6, 30, 500)
    for red, pattern in reds.items():
        hosts = small + large
        if len(pattern) <= 5:
            hosts += list(enumerate_avoiders({pattern}, 7))
        for p in hosts:
            assert greedy_colors(red, p) == _rescan_greedy_colors(red, p), (red, p)


def test_greedy_run_drop_state_and_search_match_the_rescan():
    # a red part I_a ⊕ D_2 runs the inline epoch scan: route b's 132 on every
    # permutation of order <= 8, 1243 and 12354 (a = 2, 3) on those of order
    # <= 7; the red part 1342 = 1⊕231 of route b for 13425 takes the search
    # through each new element, on every permutation of order <= 6; all four
    # also on seeded hosts of order 30-300
    from conftest import seeded_hosts

    from permsplit.perms import all_perms

    large = seeded_hosts(1324, 12)
    for red, n_max in ((P("132"), 8), (P("1243"), 7), (P("12354"), 7), (P("1342"), 6)):
        for p in [p for n in range(n_max + 1) for p in all_perms(n)] + large:
            assert greedy_colors(red, p) == _rescan_greedy_colors(red, p), (red, p)


def _counting_searches(monkeypatch) -> list:
    """Record every `perms._first_occurrence` call from here on."""
    from permsplit import perms

    calls = []
    search = perms._first_occurrence

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(perms, "_first_occurrence", counted)
    return calls


def _skew_sum_of_avoiders(pattern: Permutation, seed: int) -> Permutation:
    """A skew sum of 1,250 seeded members of Av_8(pattern), n = 10^4."""
    import random

    from permsplit.perms import avoids

    rng = random.Random(seed)
    pieces: list[tuple[int, ...]] = []
    while len(pieces) < 1250:
        piece = tuple(rng.sample(range(1, 9), 8))
        if avoids(pattern, piece):
            pieces.append(piece)
    return Permutation(
        tuple(8 * (len(pieces) - 1 - k) + v for k, piece in enumerate(pieces) for v in piece)
    )


def test_threshold_colors_skip_a_y_the_host_cannot_hold(monkeypatch):
    # red part 24315 (Y = 2431 ⊇ 321) on a seeded 321-avoider of order 298:
    # no red class can hold a Y, so every element is red without a search
    # (before the sweep settled it, the T_0 searches took seconds on this host)
    import hashlib

    from conftest import seeded_hosts

    host = seeded_hosts(2134, 12, 30, 500)[6]
    assert len(host) == 298
    calls = _counting_searches(monkeypatch)
    colors = greedy_colors(P("24315"), host)
    assert calls == []
    assert colors == (0,) * len(host)
    assert hashlib.sha256(repr(colors).encode()).hexdigest() == (
        "524547de01c79295b4b130b6c83d8d32a938373284316ef10c94d345b0d9f1ab"
    )


def test_route_b_certificate_at_order_ten_thousand_runs_no_search(monkeypatch):
    # certify 1324 (precondition 1324 = I_1 ⊕ D_2 ⊕ I_1 by the sweep, red part
    # 132 = I_1 ⊕ D_2 by the epoch scan) on a seeded skew sum of order-8
    # members of Av(1324), n = 10^4: neither makes an occurrence search
    from permsplit.constructions import theorem_certificate
    from permsplit.oracle import merge_check

    pattern = P("1324")
    host = _skew_sum_of_avoiders(pattern, 1324)
    calls = _counting_searches(monkeypatch)
    cert = theorem_certificate(pattern, host)
    assert calls == []
    assert 0 < cert.colors.count(1) < len(host)
    assert merge_check(cert)


def test_route_a_greedy_at_order_ten_thousand_runs_no_search(monkeypatch):
    # certify 1243 (red part 123 = ε ⊕ I_3) on a seeded skew sum of order-8
    # members of Av(1243), n = 10^4: the greedy scan makes no occurrence search
    from permsplit.constructions import theorem_certificate, theorem_plan
    from permsplit.oracle import merge_check

    pattern = P("1243")
    host = _skew_sum_of_avoiders(pattern, 1243)
    calls = _counting_searches(monkeypatch)
    colors = greedy_colors(theorem_plan(pattern).spec.flatten()[0], host)
    assert calls == []
    monkeypatch.undo()
    cert = theorem_certificate(pattern, host)
    assert cert.colors == colors
    assert 0 < cert.colors.count(1) < len(host)
    assert merge_check(cert)

from __future__ import annotations

import pytest
from conftest import EMPTY_MATCHING, matchings_up_to

from permsplit.constructions import (
    _augment_connected_avoiding,
    classify_pattern,
    m_prime,
    n_minus,
    n_plus,
    tau_of,
    theorem_certificate,
    theorem_plan,
    theorem_split,
    witness_pair,
)
from permsplit.envelope import reduced_envelope
from permsplit.errors import PreconditionError, VerificationError
from permsplit.matchings import (
    Matching,
    blocks,
    is_connected,
    m_minus,
    m_of,
    m_plus,
    matching_contains,
    weight,
)
from permsplit.oracle import merge_check
from permsplit.perms import (
    EMPTY,
    Permutation,
    SYMMETRIES,
    all_perms,
    avoiders_up_to,
    contains,
    direct_sum,
    skew_sum,
    sum_decompose,
)
from permsplit.splitters import SplittingSpec

P = Permutation.from_text
M = Matching.from_text
ONE = P("1")


def test_m_plus_examples():
    assert m_plus(m_of(P("21"))) == M("1-4 2-3")
    assert m_plus(m_of(P("2413"))) == M("1-8 2-4 3-7 5-6")
    with pytest.raises(PreconditionError):
        m_plus(M("1-2"))
    with pytest.raises(PreconditionError):
        m_plus(M("1-4 2-3 5-6"))


def test_m_minus_examples():
    assert m_minus(m_of(P("21"))) == M("1-4 2-3")
    # rightmost arc of m(2413) is (2, 8): shorten to (2, 2.5)
    assert m_minus(m_of(P("2413"))) == Matching.from_arcs(
        [(1, 6), (2, 2.5), (3, 5), (4, 7)]
    )


def test_shortening_drops_weight_by_one():
    for m in matchings_up_to(5):
        if len(m) < 2 or len(blocks(m)) != 1:
            continue
        assert weight(m_plus(m)) == weight(m) - 1
        assert weight(m_minus(m)) == weight(m) - 1


def test_m_prime_examples_and_sweep():
    assert m_prime(P("21")) == M("1-2 3-4")
    assert m_prime(P("231")) == M("1-5 2-3 4-6")
    for n in range(2, 6):
        for s in all_perms(n):
            if sum_decompose(s) is not None:
                continue
            assert not matching_contains(m_of(s), m_prime(s))


def test_n_plus_n_minus_guarantees():
    for text in ("231", "312", "321", "2413", "3142", "4231"):
        s = P(text)
        for construct in (n_plus, n_minus):
            result = construct(s)
            assert is_connected(result)
            assert not matching_contains(m_of(s), result)
    # N+ contains M+, N- contains M-
    for text in ("231", "321", "2413"):
        s = P(text)
        assert matching_contains(m_plus(m_of(s)), n_plus(s))
        assert matching_contains(m_minus(m_of(s)), n_minus(s))
    with pytest.raises(PreconditionError):
        n_plus(P("132"))
    with pytest.raises(PreconditionError):
        n_plus(P("21"))


def test_augment_connected_avoiding_tries_more_arcs_then_gives_up():
    # three separate arcs: no one added arc joins them all without a
    # decreasing 4-chain, so the search goes on to pairs, skipping those
    # that share an endpoint gap
    found = _augment_connected_avoiding(M("1-2 3-4 5-6"), m_of(P("4321")))
    assert found == M("1-6 2-4 3-9 5-7 8-10")
    assert is_connected(found) and not matching_contains(m_of(P("4321")), found)
    # any connected matching of two or more arcs has a crossing, m(21)
    with pytest.raises(VerificationError, match="no connected avoiding augmentation"):
        _augment_connected_avoiding(M("1-2 3-4 5-6 7-8 9-10"), m_of(P("21")))


def test_n_plus_connected_through_order_five():
    # through order six: every route-c part τ(N±) has order at most 2|σ| + 5
    for n in (3, 4, 5, 6):
        for s in all_perms(n):
            if sum_decompose(s) is not None:
                continue
            m = m_of(s)
            for construct, shorten in ((n_plus, m_plus), (n_minus, m_minus)):
                result = construct(s)
                assert is_connected(result)
                assert not matching_contains(m, result)
                assert matching_contains(shorten(m), result)
                assert len(tau_of(result, s)) <= 2 * n + 5


def test_n_plus_2413_pinned():
    # the search adds one arc to the shortened m(σ) of the paper's running example
    assert n_plus(P("2413")) == M("1-9 2-4 3-8 5-7 6-10")
    # n_minus mirrors n_plus of the inverse 3142
    assert n_minus(P("2413")) == M("1-8 2-4 3-9 5-7 6-10")


def test_tau_of_examples():
    assert tau_of(M("1-2"), P("21")) == P("12")
    assert tau_of(EMPTY_MATCHING, P("21")) == EMPTY
    assert tau_of(M("1-4 2-3"), P("21")) == P("123")
    with pytest.raises(PreconditionError):
        tau_of(m_of(P("21")), P("21"))


def test_tau_of_contract_small_scale():
    # For σ=21: every 132-avoider whose reduced envelope avoids N avoids τ(N).
    sigma = P("21")
    hosts = list(avoiders_up_to({P("132")}, 7))
    for n_matching in matchings_up_to(3):
        if matching_contains(m_of(sigma), n_matching):
            continue
        tau = tau_of(n_matching, sigma)
        for rho in hosts:
            if not matching_contains(n_matching, reduced_envelope(rho)):
                assert contains(tau, rho) is None


def test_witness_pair_avoids_class_pattern():
    for text in ("231", "312", "321", "2413"):
        s = P(text)
        w = witness_pair(s)
        pattern = direct_sum(ONE, s)
        assert contains(pattern, w.tau_plus) is None
        assert contains(pattern, w.tau_minus) is None


def test_theorem_split_routing():
    assert theorem_split(P("1324")) == SplittingSpec.of(P("132"), P("213"))
    assert theorem_plan(P("1324")).route == "b"
    assert theorem_split(P("2143")) == SplittingSpec.of(P("213"), P("132"))
    assert theorem_plan(P("2143")).route == "a"
    assert theorem_plan(P("2134")).route == "a"
    assert theorem_split(P("2134")) == SplittingSpec.of(P("213"), P("123"))

    plan = theorem_plan(P("1342"))
    assert (plan.route, plan.symmetry) == ("c", "none")
    w = witness_pair(P("231"))
    assert plan.spec == SplittingSpec(((w.tau_plus, 2), (w.tau_minus, 2)))

    plan_d = theorem_plan(P("2314"))  # 231 ⊕ 1
    assert plan_d.route == "d"
    for q, _mult in plan_d.spec.parts:
        assert contains(P("2314"), q) is None

    plan_e = theorem_plan(P("3421"))  # skew-decomposable only
    assert plan_e.route == "e"
    assert plan_e.spec == SplittingSpec.of(P("231"), P("321"))

    with pytest.raises(PreconditionError):
        theorem_split(P("132"))
    with pytest.raises(PreconditionError):
        theorem_split(P("2413"))
    with pytest.raises(PreconditionError):
        theorem_split(P("25134"))


def test_theorem_certificates_validate():
    from conftest import brute_contains

    # one pattern per route: (a), (b), (c), (d), (e)
    cases = (("2143", 5), ("1324", 5), ("1342", 6), ("2314", 6), ("3421", 5))
    for pattern_text, n_max in cases:
        pattern = P(pattern_text)
        flat = theorem_split(pattern).flatten()
        for p in avoiders_up_to({pattern}, n_max):
            cert = theorem_certificate(pattern, p)
            assert cert.parts == flat
            for c, part in enumerate(cert.parts):
                vals = [v for v, col in zip(p.values, cert.colors) if col == c]
                rank = {v: i + 1 for i, v in enumerate(sorted(vals))}
                assert not brute_contains(part, Permutation(tuple(rank[v] for v in vals)))


def _random_321_avoider(n: int, rng) -> Permutation:
    """A merge of two increasing sequences on seeded positions and values."""
    k = rng.randint(0, n)
    first = dict(zip(sorted(rng.sample(range(n), k)), sorted(rng.sample(range(1, n + 1), k))))
    rest = iter(sorted(set(range(1, n + 1)) - set(first.values())))
    return Permutation(tuple(first[i] if i in first else next(rest) for i in range(n)))


# SHA-256 of the JSON stream of route c/d/e certificates below, recorded
# before the crossing-graph code was consolidated; a change is a behavior change
ROUTE_CDE_CERTIFICATES_SHA256 = "a151a55c2f838a5977e2f419348a714f3c01fa36bc99cd77fc737aa8433c3364"


def test_route_cde_certificates_are_pinned():
    import hashlib
    import json
    import random

    rng = random.Random(2013)
    digest = hashlib.sha256()
    for i in range(42):
        pattern = P(("1432", "3214", "4123")[i % 3])
        p = _random_321_avoider(rng.randint(16, 64), rng)
        if pattern == P("4123"):
            p = Permutation(p.values[::-1])
        cert = theorem_certificate(pattern, p)
        assert merge_check(cert), (pattern.text(), p.text())
        digest.update(json.dumps(cert.to_json_dict()).encode() + b"\n")
    assert digest.hexdigest() == ROUTE_CDE_CERTIFICATES_SHA256


# SHA-256 of the [arcs, circle_color colours, match_split colours, part count,
# trace] JSON lines of R(p) for seeded 321-avoiders, n = 64-512, and of the
# route c certificates of seeded 321-avoiders, n = 128-1024, both recorded
# before components and BFS levels became one traversal.  These hosts are
# triangle-free, with components up to 29 BFS levels deep.
LARGE_CIRCLE_SHA256 = "b4108ed0a8f001f88a423bb4a7c98a4f72edd8825a8eecd9c92feabcb12355d1"
LARGE_ROUTE_C_SHA256 = "29e1eb00db22885aeca7cf9abd8553a5f0d580726a059224aaafeacf06f73a32"


def test_large_circle_colorings_and_traces_are_pinned():
    import hashlib
    import json
    import random

    from permsplit.splitters import (
        MatchingSplitState,
        circle_color,
        dilworth_matching_base,
        match_split,
    )

    rng = random.Random(2013)
    pattern, base = P("321"), dilworth_matching_base(3)
    digest = hashlib.sha256()
    for n in (64, 96, 128, 192, 256, 384, 512):
        host = reduced_envelope(_random_321_avoider(n, rng))
        coloring = circle_color(host, 3)
        state = MatchingSplitState(pattern_basis=pattern, obstacle=m_of(pattern))
        cert = match_split(host, pattern, m_of(pattern), base, state=state)
        colors = [coloring[arc] for arc in host.arcs]
        line = json.dumps([host.text(), colors, list(cert.colors), len(cert.parts), state.trace])
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == LARGE_CIRCLE_SHA256


def _assert_proper(host, coloring) -> None:
    """No two crossing arcs of host share a colour."""
    arcs = host.arcs
    for i, (a, b) in enumerate(arcs):
        for c, d in arcs[i + 1 :]:
            if c > b:
                break
            if d > b:  # (a, b) and (c, d) cross
                assert coloring[a, b] != coloring[c, d], ((a, b), (c, d))


# SHA-256 of [R(p) arcs, circle_color colours] for a seeded 321-avoider p of
# order 2,000, recorded before the clique entry check became a sweep
CIRCLE_2000_SHA256 = "b88530e05631cd07aa74671d8c5c91c129a7db195b04f9dda1cc5adb81550cf9"


def test_circle_color_at_order_2000_is_proper_and_pinned():
    import hashlib
    import json
    import random

    from permsplit.splitters import circle_color

    host = reduced_envelope(_random_321_avoider(2000, random.Random(2000)))
    coloring = circle_color(host, 3)
    _assert_proper(host, coloring)
    line = json.dumps([host.text(), [coloring[arc] for arc in host.arcs]])
    assert hashlib.sha256(line.encode()).hexdigest() == CIRCLE_2000_SHA256


# the same for the seeded 321-avoider of order 8,000 that bench/generators.py
# draws from random.Random(1) (7,998 arcs, 5 colours), recorded while
# match_split's subtrees still returned dicts of colours
CIRCLE_8000_SHA256 = "af9598104d6fe0a4752baeddea274449bdad535c6c05321089b84b76f7a6d69f"


def test_circle_color_at_order_8000_is_proper_and_pinned():
    import hashlib
    import json
    import random

    from conftest import dyck_321_avoider

    from permsplit.splitters import circle_color

    host = reduced_envelope(dyck_321_avoider(8000, random.Random(1)))
    coloring = circle_color(host, 3)
    _assert_proper(host, coloring)
    line = json.dumps([host.text(), [coloring[arc] for arc in host.arcs]])
    assert hashlib.sha256(line.encode()).hexdigest() == CIRCLE_8000_SHA256


def test_large_route_c_certificates_are_pinned():
    import hashlib
    import json
    import random

    rng = random.Random(2013)
    digest = hashlib.sha256()
    for n in (128, 192, 256, 384, 512, 768, 1024):
        cert = theorem_certificate(P("1432"), _random_321_avoider(n, rng))
        assert merge_check(cert), n
        digest.update(json.dumps(cert.to_json_dict()).encode() + b"\n")
    assert digest.hexdigest() == LARGE_ROUTE_C_SHA256


# SHA-256 of the route c, d and e certificates (JSON line each) of the seeded
# 321-avoider of order 8,000 that bench/generators.py draws from
# random.Random(1), reversed for route e, recorded while CrossingGraph still
# kept adjacency lists
ROUTE_CDE_8000_SHA256 = {
    "1432": "17c8b398ff7eb3256388d329f4c3875e51514626b68e7788ee1c01951e7b8dd2",
    "3214": "fa07163986696d1a56c819c736aef37ae11ff8201647843507c751d3f371b547",
    "4123": "a205f0dff4f255b923ed5b69e59c4fcaf44199455e8de9179dd2fe779b871776",
}


def test_route_cde_certificates_at_order_8000_are_pinned():
    import hashlib
    import json
    import random

    from conftest import dyck_321_avoider

    p = dyck_321_avoider(8000, random.Random(1))
    for text, expected in ROUTE_CDE_8000_SHA256.items():
        host = Permutation(p.values[::-1]) if text == "4123" else p
        line = json.dumps(theorem_certificate(P(text), host).to_json_dict()) + "\n"
        assert hashlib.sha256(line.encode()).hexdigest() == expected, text


# SHA-256 of the JSON streams of route b certificates over Av_7(1324), recorded
# before the greedy splitter moved onto perms.ends_with_occurrence, and of
# route a certificates over Av_7(1243), recorded before routes a/b dropped
# their second containment search
ROUTE_AB_SWEEP_SHA256 = {
    "1324": "c112129287bedc0cda8e4968943dae4275e499b80fafab66e59982427e6f21b8",
    "1243": "684e09773111bd1a0acf480a9eb80c871c48bda7958901bb9a0507b5dfc80a74",
}


def test_route_b_sweep_certificates_are_pinned():
    import hashlib
    import json

    from permsplit.perms import enumerate_avoiders

    for text, expected in ROUTE_AB_SWEEP_SHA256.items():
        pattern = P(text)
        digest = hashlib.sha256()
        for p in enumerate_avoiders({pattern}, 7):
            cert = theorem_certificate(pattern, p)
            digest.update(json.dumps(cert.to_json_dict()).encode() + b"\n")
        assert digest.hexdigest() == expected, text


def _skew_sum_of_members(pattern: Permutation, n: int, rng) -> Permutation:
    """A skew sum of n // 8 seeded order-8 members of Av(pattern); both route
    a/b patterns are skew-indecomposable, so the sum stays in the class."""
    from conftest import brute_contains

    host = EMPTY
    while len(host) < n:
        piece = Permutation(tuple(rng.sample(range(1, 9), 8)))
        if not brute_contains(pattern, piece):
            host = skew_sum(host, piece)
    return host


# SHA-256 of the JSON streams of route a (1243) and route b (1324) certificates
# of seeded skew sums of order-8 class members, n = 64-512, recorded before the
# occurrence search gained its failed-candidate rule, when the greedy scan
# still asked ends_with_occurrence once per element; they now pin route a's
# thresholds and route b's epoch scan at large n against that search
LARGE_ROUTE_AB_SHA256 = {
    "1243": "db2322780d1889b30d1049eb134ec578c6d2040e2957686bdced0d3fb5e56e79",
    "1324": "d6c81eeff8d8534af19f872b74ad3f8be93723661bfa137f6c5fa2cc5bd5ab7f",
}


def test_large_route_ab_certificates_are_pinned():
    import hashlib
    import json
    import random

    for text, expected in LARGE_ROUTE_AB_SHA256.items():
        pattern = P(text)
        rng = random.Random(2013)
        digest = hashlib.sha256()
        for n in (64, 96, 128, 192, 256, 512):
            cert = theorem_certificate(pattern, _skew_sum_of_members(pattern, n, rng))
            assert merge_check(cert), (text, n)
            digest.update(json.dumps(cert.to_json_dict()).encode() + b"\n")
        assert digest.hexdigest() == expected, text


# SHA-256 of the JSON streams of route a certificates for 2134 = 21⊕12, whose
# red part 213 = 21 ⊕ I_1 keeps a nonempty Y, over Av_7(2134) and on seeded
# skew sums of order-8 class members, n = 64-512; recorded before the greedy
# splitter read route a's red part as thresholds
ROUTE_A_2134_SHA256 = {
    "sweep": "436a7fbc89fcbcb3a7c732dda49d5f5c8fee5d44d88149fbe8bccb03515d693d",
    "large": "302d7e24fb030b80c5d0b9b6ea6bdae7ac5927aed7306ced88e3281c018358ec",
}


def test_route_a_certificates_with_nonempty_y_are_pinned():
    import hashlib
    import json
    import random

    from permsplit.perms import enumerate_avoiders

    pattern = P("2134")
    assert theorem_plan(pattern).route == "a"
    sweep = enumerate_avoiders({pattern}, 7)
    rng = random.Random(2013)
    large = [_skew_sum_of_members(pattern, n, rng) for n in (64, 96, 128, 192, 256, 512)]
    for name, hosts in (("sweep", sweep), ("large", large)):
        digest = hashlib.sha256()
        for p in hosts:
            cert = theorem_certificate(pattern, p)
            if name == "large":
                assert merge_check(cert), len(p)
            digest.update(json.dumps(cert.to_json_dict()).encode() + b"\n")
        assert digest.hexdigest() == ROUTE_A_2134_SHA256[name], name


def test_theorem_split_every_decomposable_size4_pattern():
    # module invariant: the router's spec verifies for all 22 decomposable
    # size-4 patterns at n <= 7, with the constructive certificate fast path
    from permsplit.oracle import verify_splitting
    from permsplit.perms import skew_decompose

    patterns = [
        p
        for p in all_perms(4)
        if sum_decompose(p) is not None or skew_decompose(p) is not None
    ]
    assert len(patterns) == 22
    for pattern in patterns:
        report = verify_splitting(
            {pattern},
            theorem_split(pattern),
            7,
            splitter=lambda p, pat=pattern: theorem_certificate(pat, p),
        )
        assert report.passed, (pattern.text(), report.failures[:2])
        assert report.fallbacks == 0, pattern.text()


def test_classify_examples():
    assert classify_pattern(P("2413")).verdict == "unsplittable"
    assert classify_pattern(P("2413")).reason == "simple"
    assert classify_pattern(P("1324")).verdict == "splittable"
    assert classify_pattern(P("25134")).verdict == "unknown"
    assert classify_pattern(P("132")).verdict == "unsplittable"
    assert classify_pattern(P("12")).verdict == "unsplittable"
    assert classify_pattern(P("1")).verdict == "unsplittable"


def test_classify_symmetry_invariant_small():
    for n in range(1, 5):
        for p in all_perms(n):
            verdict = classify_pattern(p).verdict
            for image in SYMMETRIES.values():
                assert classify_pattern(image(p)).verdict == verdict

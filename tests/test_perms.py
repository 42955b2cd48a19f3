from __future__ import annotations

import sys
from collections import Counter
from itertools import combinations, islice

import pytest
from conftest import (
    brute_avoiders,
    brute_contains,
    brute_least_embedding,
    dyck_321_avoider,
    order_isomorphic,
    seeded_hosts,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from permsplit import perms
from permsplit.perms import (
    EMPTY,
    Embedding,
    Permutation,
    SYMMETRIES,
    all_perms,
    avoids,
    complement,
    completing_intervals,
    contains,
    decreasing,
    direct_sum,
    ends_with_occurrence,
    enumerate_avoiders,
    inflate,
    inflate_lr_minima,
    inverse,
    is_simple,
    least_top,
    lr_minima,
    reverse,
    reverse_complement,
    skew_sum,
    sum_block,
    sum_splits,
)

P = Permutation.from_text


def test_construction_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))
    with pytest.raises(ValueError):
        Embedding((2, 1))


def test_text_round_trip():
    for text in ("ε", "1", "2 4 1 3", "5 8 6 4 1 2 7 3"):
        assert P(text).text() == text
    assert P("2413") == P("2 4 1 3")
    assert P("") == EMPTY
    # canonical output is space-separated even for short permutations
    assert P("2413").text() == "2 4 1 3"
    assert EMPTY.text() == "ε"
    assert Permutation((10, 2, 1, 11, 3, 4, 5, 6, 7, 8, 9)).text() == "10 2 1 11 3 4 5 6 7 8 9"


def test_contains_examples():
    emb = contains(P("132"), P("2413"))
    assert emb is not None and emb.positions == (1, 2, 4)
    assert contains(P("1"), P("1")).positions == (1,)
    assert contains(P("1324"), P("2413")) is None
    assert contains(EMPTY, P("321")).positions == ()
    assert contains(P("21"), EMPTY) is None


def test_contains_matches_brute_force_and_is_lex_least():
    for n in range(7):
        for host in all_perms(n):
            for m in range(4):
                for patt in all_perms(m):
                    emb = contains(patt, host)
                    want = brute_least_embedding(patt, host)
                    if want is None:
                        assert emb is None
                    else:
                        assert emb is not None and emb.positions == want
    # every pattern of order 4 and a seeded sample of order 5 on larger hosts
    for patt, host in _patterns_and_larger_hosts():
        emb = contains(patt, host)
        want = brute_least_embedding(patt, host)
        assert (emb and emb.positions) == want


def _patterns_and_larger_hosts():
    """(pattern, host) pairs: every pattern of order 4 and 12 seeded ones of
    order 5, each against 8 seeded random hosts of order 9-11."""
    import random

    rng = random.Random(2001)
    patterns = list(all_perms(4)) + rng.sample(list(all_perms(5)), 12)
    for patt in patterns:
        for _ in range(8):
            vals = list(range(1, rng.randint(9, 11) + 1))
            rng.shuffle(vals)
            yield patt, Permutation(tuple(vals))


def test_containment_reflexive_transitive_and_rigid():
    perms6 = [p for n in range(7) for p in all_perms(n)]
    for p in perms6:
        assert contains(p, p) is not None
    # equal order: containment coincides with equality (n ≤ 6)
    for n in range(7):
        ps = list(all_perms(n))
        for a in ps:
            for b in ps:
                assert (contains(a, b) is not None) == (a == b)
    # transitivity, exhaustively for |a| ≤ 3, |b| = 4, |c| ≤ 6
    small = [p for n in range(4) for p in all_perms(n)]
    mid = list(all_perms(4))
    big = [p for n in (5, 6) for p in all_perms(n)]
    for a in small:
        for b in mid:
            if contains(a, b) is None:
                continue
            for c in big:
                if contains(b, c) is not None:
                    assert contains(a, c) is not None


def _brute_ends_with_occurrence(pattern, seq) -> bool:
    """Exhaustive scan over the subsequences that end at seq's last entry."""
    m, n = len(pattern), len(seq)
    if m == 0:
        return True
    return m <= n and any(
        order_isomorphic(pattern, [seq[i] for i in pos] + [seq[-1]])
        for pos in combinations(range(n - 1), m - 1)
    )


def test_ends_with_occurrence_matches_brute_force():
    patterns = [p.values for m in range(5) for p in all_perms(m)]
    for n in range(7):
        for host in all_perms(n):
            scaled = [10 * v + 3 for v in host.values]  # any distinct values
            for patt in patterns:
                want = _brute_ends_with_occurrence(patt, host.values)
                assert ends_with_occurrence(patt, host.values) == want
                assert ends_with_occurrence(patt, scaled) == want
    # larger hosts, also with scaled, non-contiguous values
    for patt, host in _patterns_and_larger_hosts():
        want = _brute_ends_with_occurrence(patt.values, host.values)
        assert ends_with_occurrence(patt.values, host.values) == want
        assert ends_with_occurrence(patt.values, [7 * v * v - 40 for v in host.values]) == want
    assert ends_with_occurrence((), ())
    assert not ends_with_occurrence((1, 2), (1,))
    # an occurrence that misses the last entry does not count
    assert contains(P("12"), P("231")) and not ends_with_occurrence((1, 2), (2, 3, 1))


def test_completing_intervals_match_ends_with_occurrence():
    # each new value in a slot between the host's values, or beyond them, on
    # the host and on its doubled values, against the brute-force scan and
    # against ends_with_occurrence
    patterns = [(), *(P(t).values for t in "1 12 21 132 213 2413 14253 13524".split())]
    pairs = [(patt, host.values) for n in range(7) for host in all_perms(n) for patt in patterns]
    pairs += [(patt.values, host.values) for patt, host in _patterns_and_larger_hosts()]
    for patt, host in pairs:
        doubled = tuple(2 * v for v in host)
        found = completing_intervals(patt, host)
        found_doubled = completing_intervals(patt, doubled)
        for s in range(len(host) + 1):
            v, w = s + 0.5, 2 * s + 1  # the same slot in host and in doubled
            want = _brute_ends_with_occurrence(patt, host + (v,))
            assert ends_with_occurrence(patt, host + (v,)) == want
            assert ends_with_occurrence(patt, doubled + (w,)) == want
            assert any(lo < v < hi for lo, hi in found) == want, (patt, host, v)
            assert any(lo < w < hi for lo, hi in found_doubled) == want, (patt, doubled, w)


def _planted_occurrences() -> list[tuple[Permutation, Permutation]]:
    """Seeded (pattern, host) pairs built to make the search fail long runs of
    candidates before it succeeds.  Each pattern has order 5-6 and contains
    321, but its first m-2 entries avoid 321.  The host (order 10-14) is a
    321-avoider on some of its values followed by an occurrence of the
    pattern on the others: the avoider holds many occurrences of the
    pattern's prefix that cannot be finished."""
    import random

    def ranks(vals):
        return Permutation(tuple(sorted(vals).index(v) + 1 for v in vals))

    rng = random.Random(2024)
    pairs = []
    while len(pairs) < 150:
        m, n = rng.randint(5, 6), rng.randint(10, 14)
        patt = Permutation(tuple(rng.sample(range(1, m + 1), m)))
        if not brute_contains(P("321"), patt) or brute_contains(P("321"), ranks(patt.values[:-2])):
            continue
        planted = sorted(rng.sample(range(1, n + 1), m))
        rest = sorted(set(range(1, n + 1)) - set(planted))
        prefix = dyck_321_avoider(n - m, rng)
        host = [rest[v - 1] for v in prefix.values] + [planted[v - 1] for v in patt.values]
        pairs.append((patt, Permutation(tuple(host))))
    return pairs


def test_search_after_long_failing_runs_matches_brute_force():
    for patt, host in _planted_occurrences():
        emb = contains(patt, host)
        assert emb is not None and emb.positions == brute_least_embedding(patt, host)
        for cut in (len(host), len(host) - 1, len(host) - 2):
            seq = host.values[:cut]
            assert ends_with_occurrence(patt.values, seq) == _brute_ends_with_occurrence(
                patt.values, seq
            )


def test_direct_and_skew_sum_examples():
    assert direct_sum(P("231"), P("321")) == P("231654")
    assert direct_sum(EMPTY, P("21")) == P("21")
    assert direct_sum(P("1"), P("21")) == P("132")
    assert skew_sum(P("21"), P("1")) == P("321")
    assert skew_sum(P("1"), P("1")) == P("21")
    assert skew_sum(P("12"), P("12")) == P("3412")


@given(st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_summands_are_contained(na, nb, data):
    a = Permutation(tuple(data.draw(st.permutations(list(range(1, na + 1))))))
    b = Permutation(tuple(data.draw(st.permutations(list(range(1, nb + 1))))))
    s = direct_sum(a, b)
    assert contains(a, s) is not None
    assert contains(b, s) is not None


def test_symmetry_examples():
    assert complement(P("132")) == P("312")
    assert reverse(P("132")) == P("231")
    assert inverse(P("2413")) == P("3142")
    assert reverse_complement(P("213")) == P("132")
    assert SYMMETRIES["reverse-complement"](P("21")) == P("21")


def test_symmetry_images_match_the_validated_constructor():
    # the images skip Permutation's sort check: each must equal the image
    # built the long way and validated
    for n in range(7):
        for p in all_perms(n):
            vals = p.values
            inv = tuple(vals.index(i) + 1 for i in range(1, n + 1))
            want = {
                "reverse": Permutation(vals[::-1]),
                "complement": Permutation(tuple(n + 1 - v for v in vals)),
                "inverse": Permutation(inv),
                "reverse-complement": Permutation(tuple(n + 1 - v for v in vals)[::-1]),
            }
            for kind, fn in SYMMETRIES.items():
                image = fn(p)
                assert type(image.values) is tuple and image == want[kind], (kind, p)


def test_rc_commutes_with_append_one():
    # rc(σ⊕1) = 1⊕rc(σ), checked by enumeration
    one = P("1")
    for n in range(7):
        for s in all_perms(n):
            assert reverse_complement(direct_sum(s, one)) == direct_sum(
                one, reverse_complement(s)
            )


def test_symmetries_preserve_containment():
    perms = [p for n in range(6) for p in all_perms(n)]
    pats = [p for n in range(4) for p in all_perms(n)]
    for fn in SYMMETRIES.values():
        for patt in pats:
            for host in perms:
                assert (contains(patt, host) is None) == (
                    contains(fn(patt), fn(host)) is None
                )


def test_symmetries_are_involutions_or_bijections():
    for p in all_perms(4):
        assert reverse(reverse(p)) == p
        assert complement(complement(p)) == p
        assert inverse(inverse(p)) == p
        assert reverse_complement(reverse_complement(p)) == p


def test_inflate_examples():
    assert inflate(P("231"), [P("213"), P("21"), P("12")]) == P("4357612")
    assert inflate(P("1"), [P("2413")]) == P("2413")
    assert inflate(P("21"), [P("12"), P("1")]) == P("231")
    with pytest.raises(ValueError):
        inflate(P("21"), [P("1")])
    with pytest.raises(ValueError):
        inflate(P("21"), [P("1"), EMPTY])


def test_is_simple_examples():
    assert is_simple(P("2413"))
    assert not is_simple(P("231"))
    assert is_simple(P("1"))
    assert is_simple(EMPTY)
    assert is_simple(P("12")) and is_simple(P("21"))
    assert is_simple(P("3142"))
    # the only simple permutations of order 4 are 2413 and 3142
    assert [p.text() for p in all_perms(4) if is_simple(p)] == ["2 4 1 3", "3 1 4 2"]


def _components(p):
    """p's ⊕-components, sliced between consecutive splits."""
    ends = (0, *sum_splits(p), len(p))
    return tuple(sum_block(p, i, j) for i, j in zip(ends, ends[1:]))


def test_decompose_examples():
    p = P("1324")
    assert sum_splits(p) == (1, 3)
    assert (sum_block(p, 0, 1), sum_block(p, 1, 4)) == (P("1"), P("213"))
    assert sum_splits(P("231")) == ()
    assert sum_splits(P("12")) == (1,)
    assert (sum_block(P("12"), 0, 1), sum_block(P("12"), 1, 2)) == (P("1"), P("1"))
    # ⊖-splits are the ⊕-splits of the complement: 321 = 1 ⊖ 21, 3412 = 12 ⊖ 12
    c = complement(P("321"))
    assert sum_splits(c) == (1, 2)
    assert (complement(sum_block(c, 0, 1)), complement(sum_block(c, 1, 3))) == (P("1"), P("21"))
    c = complement(P("3412"))
    assert sum_splits(c) == (2,)
    assert (complement(sum_block(c, 0, 2)), complement(sum_block(c, 2, 4))) == (P("12"), P("12"))
    assert sum_splits(complement(P("123"))) == ()
    assert _components(P("1324")) == (P("1"), P("21"), P("1"))
    assert _components(P("21345")) == (P("21"), P("1"), P("1"), P("1"))
    # a slice that does not hold the values i + 1..j is refused
    with pytest.raises(ValueError):
        sum_block(P("1324"), 0, 2)
    with pytest.raises(ValueError):
        sum_block(P("1324"), 1, 2)


def test_decompose_round_trips():
    # the head of a split being indecomposable the same way pins the least k
    for n in range(1, 8):
        for p in all_perms(n):
            splits = sum_splits(p)
            if splits:
                head, tail = sum_block(p, 0, splits[0]), sum_block(p, splits[0], n)
                assert direct_sum(head, tail) == p
                assert sum_splits(head) == ()
            c = complement(p)
            splits = sum_splits(c)
            if splits:
                head = complement(sum_block(c, 0, splits[0]))
                tail = complement(sum_block(c, splits[0], n))
                assert skew_sum(head, tail) == p
                assert sum_splits(complement(head)) == ()


def test_sum_splits_and_blocks_against_their_definitions():
    # every split, not only the least, against the brute-force definition,
    # and p rebuilt as a ⊕-sum (⊖-sum through the complement) at each one
    for n in range(9):
        for p in all_perms(n):
            splits = sum_splits(p)
            assert splits == tuple(k for k in range(1, n) if set(p.values[:k]) == set(range(1, k + 1)))
            for k in splits:
                assert direct_sum(sum_block(p, 0, k), sum_block(p, k, n)) == p
            c = complement(p)
            for k in sum_splits(c):
                assert skew_sum(complement(sum_block(c, 0, k)), complement(sum_block(c, k, n))) == p


def test_indecomposable_both_ways_but_not_simple_is_rare():
    p = P("25134")
    assert sum_splits(p) == ()
    assert sum_splits(complement(p)) == ()
    assert not is_simple(p)


def test_lr_minima_examples():
    assert lr_minima(P("58641273")) == (1, 4, 5)
    assert [P("58641273").values[i - 1] for i in lr_minima(P("58641273"))] == [5, 4, 1]
    assert lr_minima(P("123")) == (1,)
    assert lr_minima(P("321")) == (1, 2, 3)
    assert lr_minima(EMPTY) == ()


def test_inflate_lr_minima_examples():
    assert inflate_lr_minima(P("21"), P("12")) == P("3412")
    assert inflate_lr_minima(P("12"), P("21")) == P("213")
    assert inflate_lr_minima(P("1"), P("2413")) == P("2413")
    with pytest.raises(ValueError):
        inflate_lr_minima(P("21"), EMPTY)


def test_enumerate_avoiders_examples():
    assert list(enumerate_avoiders({P("21")}, 4)) == [P("1234")]
    catalan = [1, 2, 5, 14, 42, 132, 429]
    for n, want in enumerate(catalan, start=1):
        assert len(list(enumerate_avoiders({P("132")}, n))) == want
    with pytest.raises(ValueError):
        list(enumerate_avoiders({P("12")}, -1))


def test_enumeration_stack_stays_shallow_at_any_order():
    # the levels are walked in one loop, each built from its parent, so
    # Av_300(21) enumerates under a recursion limit of 150 frames; one frame
    # pair per order would need 600
    import os
    import subprocess
    from pathlib import Path

    import permsplit

    src = str(Path(permsplit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from permsplit.perms import Permutation, enumerate_avoiders\n"
        "sys.setrecursionlimit(150)\n"
        "identity = Permutation(tuple(range(1, 301)))\n"
        "assert list(enumerate_avoiders({Permutation((2, 1))}, 300)) == [identity]\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_enumeration_keeps_only_the_parent_level():
    # Av(21) has one member per order; a walk that kept every level would hold
    # 4.5 million values in the 3,000 levels, about 160 MB.  The child reads
    # its own peak as VmHWM: its ru_maxrss would start at this process's
    # resident size, which Linux carries across fork and exec.
    import os
    import subprocess
    from pathlib import Path

    import permsplit

    src = str(Path(permsplit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "from permsplit.perms import Permutation, enumerate_avoiders\n"
        "assert sum(1 for _ in enumerate_avoiders({Permutation((2, 1))}, 3000)) == 1\n"
        "status = open('/proc/self/status').read().split()\n"
        "print(status[status.index('VmHWM:') + 1])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 64 * 1024, f"peak {result.stdout.strip()} kB"


def test_enumerate_avoiders_matches_brute_filter():
    bases = [
        {P("132")},
        {P("321")},
        {P("2413")},
        {P("1324")},
        {P("132"), P("213")},
        {P("2413"), P("3142")},
        {P("123"), P("3214")},
        # last entry the maximum (X⊕1), the minimum (X⊖1), or neither
        {P("1")},
        {P("12")},
        {P("1234")},
        {P("1432")},
        {P("2431")},
        {P("1324"), P("2143")},
        {P("132"), P("4321")},
        # I_a ⊕ D_k (a >= 1, k >= 2) or its complement: forbidden intervals
        {P("312")},
        {P("1243")},
        {P("4123")},
        {P("3421")},
        {P("1432"), P("4123")},
    ]
    for basis in bases:
        for n in range(7):
            assert list(enumerate_avoiders(basis, n)) == brute_avoiders(basis, n)


def test_enumerate_avoiders_larger_spot_check():
    # one n=7 sweep against the brute filter of all 5040 permutations
    basis = {P("1324")}
    assert list(enumerate_avoiders(basis, 7)) == brute_avoiders(basis, 7)


# SHA-256 of the avoider lists at orders 0-8 (one permutation per line, in
# size-then-lex order), recorded before enumeration read X⊕1 and X⊖1 basis
# elements as thresholds: 1234 and 1324 end in their maximum, 2431 and 4321 in
# their minimum, 1432 and 2143 in neither.  The entries from 132 on were
# recorded before enumeration read I_a ⊕ D_k basis elements (132, 1243,
# 1432) and their complements (312, 3421, 4123) as forbidden intervals.
AVOIDER_LISTS_SHA256 = {
    "1": "95db3a9172d0d9780d59ed7586ad2820a56f2c23cba67a4ce97a9595846182cc",
    "12": "ea9f91e397cab7cde38661d7da2e5924a4c68e0ae779e70b2f7a97b9bd0558d2",
    "1234": "502663ca93e2d19ac396f468ad9a39e87e6212847d1f86b1e28b0e21019de07e",
    "1324": "6c7f7a23b373f144199720988d979a0fc4e09af89dad42cba268f6811db9af97",
    "1432": "2bd5c8a623887167d5efe0c63088df9b3f9364c86994efaca5375610fd20395a",
    "2431": "b47881bb176984d8bfd52bdddb49f22743b3d6ec28c0038468b1deb245b3123e",
    "1324 2143": "0865a798d1f31860e0816974e8283e0138ec035633450b1ead4d02b6a82d0cd0",
    "132 4321": "ca0f73e80c0dabd642508fb9f53edb6f75a080de5499a67142f5fa0552f19a20",
    "132": "480d2e67653478ff9a128aa040d1a4f071cd13ffa495b873299aa2b25ccdb3c9",
    "312": "ec994cd483b9c49ce4980a729a252910a3b107aec23dcd4dacbd6bef6b1c4ec9",
    "1243": "755e35b452af539c5355c2dd6f4cab5bf48128d8025765a342756fe4de06bcbf",
    "4123": "3825099863d451e31d24feedbcb8e71dc1aee9ef06f4f344a21be649b6d47087",
    "3421": "dc65eedfc93a9036659de4514613a22e8bb4cb26bce05eee86957b592e6ae9bf",
    "1432 4123": "565c9c332ee1f102428b30ed3e46aa7e5613d80ffa0cd9a94eea20b26678eb28",
}


def test_avoider_lists_are_pinned():
    import hashlib

    from permsplit.perms import avoiders_up_to

    for text, expected in AVOIDER_LISTS_SHA256.items():
        digest = hashlib.sha256()
        for p in avoiders_up_to({P(b) for b in text.split()}, 8):
            digest.update(p.text().encode() + b"\n")
        assert digest.hexdigest() == expected, text


def test_forbidden_lasts_match_the_pinned_search():
    # every value v whose v - 0.5, appended, completes I_a ⊕ D_k lies in one
    # of the intervals [top + 1, bottom] the walk reads off the splits of
    # I_a ⊕ D_{k-1}, and no other
    from permsplit.perms import _run_drop_splits

    shapes = [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (3, 2)]
    for n in range(7):
        for host in all_perms(n):
            for a, k in shapes:
                pattern = (*range(1, a + 1), *range(a + k, a, -1))
                splits = _run_drop_splits(a, k - 1, host.values)
                intervals = [(top + 1, bottom) for top, bottom in splits]
                for v in range(1, n + 2):
                    want = ends_with_occurrence(pattern, host.values + (v - 0.5,))
                    assert any(lo <= v <= hi for lo, hi in intervals) == want, (host, a, k, v)


def test_interval_bases_enumerate_without_a_pinned_search(monkeypatch):
    # Av(1432, 4123) walked to order 8: every basis element is read as
    # forbidden intervals, none is searched per child
    basis = {P("1432"), P("4123")}
    calls = []
    search = perms._first_occurrence

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(perms, "_first_occurrence", counted)
    parents = list(enumerate_avoiders(basis, 7))
    level = list(enumerate_avoiders(basis, 8))
    assert calls == []
    assert len(level) > len(parents) and all(avoids(b, p) for p in level for b in basis)


def test_rest_bases_enumerate_through_one_interval_list_per_parent(monkeypatch):
    # Av(2413, 3142) walked to order 8: neither element is a threshold or a
    # run-drop shape, so each parent lists each element's completing
    # intervals once, and no candidate is searched on its own.  Every list
    # runs `_first_occurrence` with an interval list, which is not counted:
    # a search without one would be a candidate searched on its own
    basis = {P("2413"), P("3142")}
    calls = Counter()

    def counted(name):
        search = getattr(perms, name)

        def call(*args):
            if name != "_first_occurrence" or len(args) < 5 or args[4] is None:
                calls[name] += 1
            return search(*args)

        return call

    for name in ("_first_occurrence", "completing_intervals"):
        monkeypatch.setattr(perms, name, counted(name))
    parents = sum(len(triple[0]) for triple in islice(perms.avoider_walk(basis), 8))
    assert parents == 1 + 1 + 2 + 6 + 22 + 90 + 394 + 1806  # orders 0-7
    assert calls == {"completing_intervals": 2 * parents}


@pytest.mark.parametrize("basis", ["1432", "1324", "123", "2413 3142", "2314", ""])
def test_avoider_walk_links_each_child_to_its_parent(basis):
    from permsplit.perms import avoider_members, avoider_walk, avoiders_up_to

    basis = {P(b) for b in basis.split()}
    members = [p.values for p in avoiders_up_to(basis, 7)]
    walk = avoider_walk(basis)
    parents = [()]  # ε, the root
    for n, (got, lasts, starts) in zip(range(1, 8), walk):
        assert got == parents  # each order's members are the next triple's parents
        assert len(starts) == len(parents) + 1 and starts[0] == 0 and starts[-1] == len(lasts)
        level = avoider_members(parents, lasts, starts)
        assert [child[-1] for child in level] == lasts
        for q, lo, hi in zip(parents, starts, starts[1:]):
            assert lasts[lo:hi] == sorted(set(lasts[lo:hi]))
            assert avoider_members((q,), lasts, (lo, hi)) == level[lo:hi]
            for child in level[lo:hi]:
                # the member with its last entry deleted and the rest reduced
                assert tuple(v - (v > child[-1]) for v in child[:-1]) == q
        assert sorted(level) == [vals for vals in members if len(vals) == n]
        parents = level
    assert n == 7


def test_order_zero_and_the_empty_basis_element():
    from permsplit.perms import avoider_walk, avoiders_up_to, count_avoiders

    assert list(enumerate_avoiders({P("132")}, 0)) == [EMPTY]
    assert count_avoiders({P("132")}, 0) == 1 and count_avoiders({P("1")}, 0) == 1
    assert list(avoiders_up_to({P("1")}, 3)) == [EMPTY]
    assert list(avoiders_up_to({P("12")}, 0)) == [EMPTY]
    # a negative order: no count, and no member up to it
    with pytest.raises(ValueError):
        count_avoiders({P("132")}, -1)
    assert list(avoiders_up_to({P("132")}, -1)) == []
    # ε in the basis: the class is empty and the walk yields nothing
    for basis in ({EMPTY}, {EMPTY, P("12")}):
        assert list(avoider_walk(basis)) == []
        assert [count_avoiders(basis, n) for n in range(4)] == [0, 0, 0, 0]
        assert [list(enumerate_avoiders(basis, n)) for n in range(4)] == [[], [], [], []]
        assert list(avoiders_up_to(basis, 3)) == []
    # a finite class: the walk ends after its first empty order
    assert list(avoider_walk({P("12"), P("21")})) == [([()], [1], [0, 1]), ([(1,)], [], [0, 0])]
    assert [count_avoiders({P("12"), P("21")}, n) for n in range(4)] == [1, 1, 0, 0]


def test_trusted_children_compare_and_hash_like_checked_ones():
    for p in enumerate_avoiders({P("1432")}, 6):
        checked = Permutation(p.values)
        assert p == checked and hash(p) == hash(checked) and type(p.values) is tuple


def test_least_top_matches_brute_force():
    patterns = [p.values for m in range(1, 5) for p in all_perms(m)]
    for n in range(6):
        for host in all_perms(n):
            scaled = [3 * v - 10 for v in host.values]
            for patt in patterns:
                tops = [
                    max(sub)
                    for pos in combinations(range(n), len(patt))
                    for sub in [[host.values[i] for i in pos]]
                    if order_isomorphic(patt, sub)
                ]
                for bound in (float("inf"), *range(1, n + 2)):
                    want = min((t for t in tops if t < bound), default=bound)
                    assert least_top(patt, host.values, bound) == want
                want = min(tops, default=float("inf"))
                assert least_top(patt, scaled) == 3 * want - 10
    assert least_top((), (1, 2)) == float("-inf")


def _backtracked_top(pattern, seq, bound=float("inf")):
    """least_top by the repeated backtracking search alone."""
    top = bound
    while (chosen := perms._first_occurrence(pattern, seq, False, top)) is not None:
        top = seq[chosen[pattern.index(len(pattern))]]
    return top


def test_least_top_of_increasing_pattern_takes_no_search(monkeypatch):
    import random

    rng = random.Random(5)
    shuffled = list(range(1, 301))
    rng.shuffle(shuffled)
    cases = [((1,), list(range(2000, 0, -1)), float("inf")), ((1, 2, 3), shuffled, 120)]
    cases += [((1, 2), shuffled, bound) for bound in (2, 40, float("inf"))]
    want = [_backtracked_top(*case) for case in cases]
    calls = []
    search = perms._first_occurrence
    monkeypatch.setattr(perms, "_first_occurrence", lambda *a: calls.append(a) or search(*a))
    assert [least_top(*case) for case in cases] == want
    assert want[0] == 1 and not calls
    # any other pattern still backtracks
    assert least_top((2, 1), shuffled) == _backtracked_top((2, 1), shuffled) and calls


def test_decreasing():
    assert decreasing(4) == P("4321")
    assert decreasing(0) == EMPTY


def test_avoids_against_brute():
    patterns = [p for m in range(5) for p in all_perms(m)]
    for n in range(7):
        for host in all_perms(n):
            for patt in patterns:
                assert avoids(patt, host) == (not brute_contains(patt, host))


def _shape_images(shapes: list[Permutation]) -> list[Permutation]:
    images = {f(q) for q in shapes for f in (lambda q: q, reverse, complement, reverse_complement)}
    return sorted(images, key=lambda q: q.values)


def _run_drop_run_patterns(m: int) -> list[Permutation]:
    """The patterns of order m that are reverses and/or complements of some
    I_a ⊕ D_2 ⊕ I_b with a, b >= 1."""
    shapes = [(*range(1, a + 1), a + 2, a + 1, *range(a + 3, m + 1)) for a in range(1, m - 2)]
    return _shape_images([Permutation(q) for q in shapes])


def _sweep_patterns(m: int) -> list[Permutation]:
    """The patterns of order m that `avoids` sweeps instead of backtracking:
    reverses and/or complements of some I_a ⊕ D_k or I_a ⊕ D_2 ⊕ I_b."""
    shapes = [Permutation((*range(1, a + 1), *range(m, a, -1))) for a in range(m + 1)]
    return sorted({*_shape_images(shapes), *_run_drop_run_patterns(m)}, key=lambda q: q.values)


def test_avoids_sweeps_exactly_the_documented_patterns():
    from permsplit import perms

    for m in range(6):
        swept = [q for q in all_perms(m) if perms._sweep_shape(q.values) is not None]
        assert swept == _sweep_patterns(m)
    assert _sweep_patterns(3) == list(all_perms(3))
    assert {"".join(q.text().split()) for q in _sweep_patterns(4)} == {
        "1234", "1243", "1324", "1432", "2134", "2341", "3214", "3421", "4123", "4231", "4312",
        "4321",
    }
    assert {"".join(q.text().split()) for q in _run_drop_run_patterns(5)} == {
        "12435", "13245", "53421", "54231",
    }
    assert len(_sweep_patterns(5)) == 18


def test_avoids_sweep_and_contains_backtracking_agree_on_order_7():
    patterns = [q for m in range(5) for q in _sweep_patterns(m)]
    for host in all_perms(7):
        for patt in patterns:
            assert avoids(patt, host) == (contains(patt, host) is None), (patt, host)


def test_run_drop_run_sweep_against_brute_force():
    # every I_a ⊕ D_2 ⊕ I_b image of order <= 5 on every host of order <= 7,
    # on the host and on a raw value sequence with gaps and negatives, and
    # 1324 on every host of order 8
    patterns = _run_drop_run_patterns(4) + _run_drop_run_patterns(5)
    for n in range(8):
        for host in all_perms(n):
            raw = [7 * v - 4 * n for v in host.values]
            for patt in patterns:
                want = not brute_contains(patt, host)
                assert avoids(patt, host) == want, (patt, host)
                assert avoids(patt, raw) == want
    # order 8 without the 70-subset scan: each "contains" is certified by an
    # embedding, so a count of |Av_8(1324)| = 15,793 leaves no false "avoids"
    p1324, avoiders = P("1324"), 0
    for host in all_perms(8):
        if avoids(p1324, host):
            avoiders += 1
        else:
            emb = contains(p1324, host)
            assert emb is not None, host
            assert order_isomorphic(p1324.values, [host.values[i - 1] for i in emb.positions])
    assert avoiders == 15_793


def _brute_levels(seq, m: int, sign: int) -> list:
    """For each t, the least top of an increasing m-run in seq[:t]
    (sign 1), or the greatest bottom of a decreasing m-run in seq[t:]
    (sign -1), from every m-subset."""
    import math

    def level(part):
        runs = combinations(part, m)
        ends = [c[-1] for c in runs if all(sign * (y - x) > 0 for x, y in zip(c, c[1:]))]
        return sign * min((sign * v for v in ends), default=math.inf)

    return [level(seq[:t] if sign > 0 else seq[t:]) for t in range(len(seq))]


def test_run_drop_splits_against_brute_force():
    # the whole yielded list, for a in 1..3 and k in 1..5 (k = 1 the suffix
    # maximum, k = 2 the stack alone, k = 3 the H_2 stack, k >= 4 Fenwick
    # levels) on every host of order <= 7, against _run_drop_splits' yield
    # rule applied to brute-force T_a(seq[:t]) and G_k(seq[t:])
    import math

    from permsplit.perms import _run_drop_splits

    for n in range(8):
        for host in all_perms(n):
            tops = {a: _brute_levels(host.values, a, 1) for a in range(1, 4)}
            for k in range(1, 6):
                bottoms = _brute_levels(host.values, k, -1)
                for a, top in tops.items():
                    want, best = [], -math.inf
                    for t in range(n - 1, -1, -1):
                        if bottoms[t] > best:
                            best = bottoms[t]
                            if top[t] < best:
                                want.append((top[t], best))
                    assert list(_run_drop_splits(a, k, host.values)) == want, (a, k, host)


def test_avoids_1432_on_a_321_avoider_of_order_100000():
    # a 321-avoider avoids 1432 = 1 ⊕ 321.  Planting 1, 4, 3, 2 in front of
    # it gives one occurrence, whose first entry is at position 1, so the
    # sweep must run to the host's first split
    import random

    host = dyck_321_avoider(100_000, random.Random(32))
    assert avoids(P("1432"), host)
    planted = Permutation((1, 4, 3, 2, *(v + 4 for v in host.values)))
    assert not avoids(P("1432"), planted)
    assert contains(P("1432"), planted) == Embedding((1, 2, 3, 4))


def test_run_drop_run_found_against_brute_force():
    # I_a ⊕ D_2 ⊕ I_b for every a, b >= 1 with a + b <= 5 (orders 4-7) on
    # every host of order <= 7, against the exhaustive scan
    from permsplit.perms import _run_drop_run_found

    hosts = [host for n in range(8) for host in all_perms(n)]
    for a in range(1, 5):
        for b in range(1, 6 - a):
            run_a, run_b = (Permutation(tuple(range(1, k + 1))) for k in (a, b))
            patt = direct_sum(direct_sum(run_a, decreasing(2)), run_b)
            for host in hosts:
                want = brute_contains(patt, host)
                assert _run_drop_run_found(a, b, host.values) == want, (a, b, host)


def test_run_drop_state_memory_is_linear_on_a_decreasing_host():
    # on decreasing(10^4) every push starts an epoch: the 1324 sweep and a
    # route-b certificate stay within a few MB (a bitset per epoch would
    # need about n^2/8 bytes, 12.5 MB here)
    import tracemalloc

    from permsplit.constructions import theorem_certificate

    host = decreasing(10**4)
    tracemalloc.start()
    try:
        assert avoids(P("1324"), host)
        _, avoids_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cert = theorem_certificate(P("1324"), host)
        _, cert_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.colors == (0,) * len(host)
    assert avoids_peak < 3_000_000 and cert_peak < 3_000_000, (avoids_peak, cert_peak)


# SHA-256 of the text lines of every seeded host the tests draw, recorded
# while seeded_hosts still built its skew sums one perms.skew_sum at a time
SEEDED_HOSTS_SHA256 = "85f3d8d8743e7f4343ca1b60d756ddefcd721a87fae20effc0c67633e9265e25"


def test_seeded_hosts_are_pinned():
    import hashlib

    digest = hashlib.sha256()
    calls = [(2026, 42), (1432, 24), (2013, 12, 1000, 10000), (105, 24)]
    calls += [(2134, 12, 30, 500), (1324, 12), (1500, 12, 300, 1500)]
    for args in calls:
        for host in seeded_hosts(*args):
            digest.update(host.text().encode() + b"\n")
    assert digest.hexdigest() == SEEDED_HOSTS_SHA256


def test_avoids_sweep_and_contains_backtracking_agree_on_large_hosts():
    # sweep patterns of order 4-5 on seeded hosts of order 30-300, also as
    # raw value sequences with gaps and negatives, in the same order as the
    # host
    seen = set()
    for host in seeded_hosts(2026, 42):
        raw = [5 * v - 3 * len(host) for v in host.values]
        for patt in _run_drop_run_patterns(4) + _sweep_patterns(5):
            want = contains(patt, host) is None
            assert avoids(patt, host) == want, (patt, host)
            assert avoids(patt, raw) == want
            seen.add(want)
    assert seen == {True, False}


def test_value_sequences_search_like_their_ranks():
    # a color class is searched on its raw values: same answer and embedding
    # as on its re-ranked permutation.  The values include 0 and negatives, so
    # a failed candidate of value 0 must still bound the later candidates,
    # the sweeps whose trees read values as indices (1432, 3214 and 4123 with
    # k = 3; 1324 and 4231 with b = 1) run on the ranks `avoids` maps them to,
    # and the k = 2 sweeps (132, 213, 231, 312, 1243, 2134, 3421: reversed,
    # complemented, both or neither) compare the raw values.
    import random

    rng = random.Random(3)
    for _ in range(300):
        vals = rng.sample(range(-20, 40), rng.randint(0, 8))
        ranked = Permutation(tuple(sorted(vals).index(v) + 1 for v in vals))
        for patt in (
            P("1"), P("21"), P("132"), P("213"), P("231"), P("312"), P("1243"), P("2134"),
            P("3421"), P("1432"), P("3214"), P("4123"), P("1324"), P("4231"), P("2413"),
            P("25314"), P("31524"),
        ):
            emb = contains(patt, ranked)
            assert (emb and emb.positions) == brute_least_embedding(patt, ranked)
            assert contains(patt, vals) == emb
            assert contains(patt.values, tuple(vals)) == emb
            assert avoids(patt, vals) == (emb is None)
            ends = _brute_ends_with_occurrence(patt.values, ranked.values)
            assert ends_with_occurrence(patt.values, vals) == ends


def _large_hosts() -> list[Permutation]:
    """Twelve seeded hosts of order 16-64 like the large certificate subjects:
    321-avoiders, their reverses, and skew sums of small 321-avoiders."""
    import random

    rng = random.Random(2001)
    hosts = []
    for _ in range(4):
        p = dyck_321_avoider(rng.randint(16, 64), rng)
        hosts += [p, reverse(p)]
    for _ in range(4):
        host, total = EMPTY, rng.randint(16, 64)
        while len(host) < total:
            host = skew_sum(host, dyck_321_avoider(min(total - len(host), rng.randint(2, 6)), rng))
        hosts.append(host)
    return hosts


# SHA-256 of contains(pattern, host) positions for every pattern of order
# <= 4 against the hosts above, recorded before the occurrence search moved
# onto neighbour bounds; a change is a behaviour change
LARGE_EMBEDDINGS_SHA256 = "f31fdc874b326b77c75dc9f4e5cac6ea135a03e958e66cb845b117270ec16e00"


def test_contains_embeddings_at_large_n_are_pinned():
    import hashlib

    digest = hashlib.sha256()
    for host in _large_hosts():
        for m in range(5):
            for patt in all_perms(m):
                emb = contains(patt, host)
                digest.update(repr(None if emb is None else emb.positions).encode() + b"\n")
    assert digest.hexdigest() == LARGE_EMBEDDINGS_SHA256

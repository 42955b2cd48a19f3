from __future__ import annotations

from itertools import combinations

import pytest
from conftest import (
    EMPTY_MATCHING,
    all_matchings,
    blocks,
    brute_components,
    brute_matching_contains,
    levels,
    matchings_up_to,
    seeded_hosts,
    uplus,
)

from permsplit.errors import PreconditionError
from permsplit.matchings import (
    CrossingGraph,
    Matching,
    arc_blocks,
    crosses,
    is_connected,
    m_of,
    matching_contains,
    mirror,
    perm_of,
    weight,
)
from permsplit.perms import Permutation, all_perms, contains, inverse, sum_splits

P = Permutation.from_text
M = Matching.from_text


def test_normalization_and_text():
    m = Matching.from_arcs([(2.5, 4), (0.5, 3.5)])
    assert m.text() == "1-3 2-4"
    assert Matching.from_text("3-6 1-5 2-4") == M("1-5 2-4 3-6")
    assert Matching.from_text("").arcs == ()
    with pytest.raises(ValueError):
        Matching.from_arcs([(1, 2), (2, 3)])
    # a NaN breaks the coordinate sort, so either arc order would parse
    # differently; infinities are refused with it
    for text in ("nan-5 2-3", "2-3 nan-5", "1-inf 2-3"):
        with pytest.raises(ValueError):
            Matching.from_text(text)
    with pytest.raises(ValueError):
        Matching.from_arcs([(float("-inf"), 1), (2, 3)])
    with pytest.raises(ValueError):
        Matching(((1, 3), (2, 4), (5, 7)))
    with pytest.raises(ValueError):  # left >= right
        Matching(((2, 1),))
    with pytest.raises(ValueError):  # not sorted by left endpoint
        Matching(((2, 3), (1, 4)))


def test_m_of_examples():
    assert m_of(P("231")) == M("1-5 2-4 3-6")
    assert m_of(P("21")) == M("1-3 2-4")
    assert m_of(P("1")) == M("1-2")
    assert m_of(P("")) == EMPTY_MATCHING


def test_m_of_crossings_are_inversions():
    for n in range(7):
        for p in all_perms(n):
            m = m_of(p)
            # arc for element i has right endpoint n+i
            arc_of = {b - n: (a, b) for a, b in m.arcs}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    inv = p.values[i - 1] > p.values[j - 1]
                    x, y = arc_of[i], arc_of[j]
                    crossing = x[0] < y[0] < x[1] < y[1] or y[0] < x[0] < y[1] < x[1]
                    assert crossing == inv


def test_perm_of_examples_and_round_trip():
    assert perm_of(M("1-5 2-4 3-6")) == P("231")
    assert perm_of(M("1-2 3-4")) is None
    assert perm_of(M("1-2")) == P("1")
    for n in range(7):
        for p in all_perms(n):
            assert perm_of(m_of(p)) == p


def test_matching_contains_examples():
    assert matching_contains(m_of(P("21")), m_of(P("321")))
    assert matching_contains(M("1-2"), M("1-4 2-3"))
    assert not matching_contains(m_of(P("21")), M("1-2 3-4"))
    assert matching_contains(EMPTY_MATCHING, EMPTY_MATCHING)


def test_matching_contains_matches_brute_force():
    import random

    rng = random.Random(2001)
    patterns = list(matchings_up_to(3))
    hosts = list(matchings_up_to(5))
    for q in (6, 7):
        for _ in range(40):
            points = list(range(1, 2 * q + 1))
            rng.shuffle(points)
            hosts.append(Matching.from_arcs(zip(points[::2], points[1::2])))
    for patt in patterns:
        for host in hosts:
            assert matching_contains(patt, host) == brute_matching_contains(patt, host)
            # an unnormalized arc subset, sorted by left endpoint, is a host too
            sub = host.arcs[::2]
            expected = brute_matching_contains(patt, Matching.from_arcs(sub))
            assert matching_contains(patt, sub) == expected


def test_clique_sweep_matches_brute_force_and_backtracking():
    # m(k…1), k pairwise crossing arcs, is swept for k >= 2; the empty and
    # single-arc patterns, and every other pattern, backtrack
    from permsplit.matchings import _neighbour_bound_search

    cliques = [Matching(tuple((i, i + k) for i in range(1, k + 1))) for k in range(6)]
    assert cliques[2] == m_of(P("21")) and cliques[3] == m_of(P("321"))
    for host in matchings_up_to(5):
        for clique in cliques:
            assert matching_contains(clique, host) == brute_matching_contains(clique, host)
            # unnormalized arc subsets, sorted by left endpoint, are hosts too
            for sub in (host.arcs[::2], host.arcs[1:]):
                expected = brute_matching_contains(clique, Matching.from_arcs(sub))
                assert matching_contains(clique, sub) == expected
    for host in matchings_up_to(6):
        for clique in cliques[:5]:
            expected = _neighbour_bound_search(clique.arcs, host.arcs)
            assert matching_contains(clique, host) == expected, (clique, host)
    assert matching_contains(cliques[0], EMPTY_MATCHING)
    assert not matching_contains(cliques[1], EMPTY_MATCHING)
    assert matching_contains(cliques[1], [(0.5, 7)])


def test_matching_containment_mirrors_permutation_containment():
    # Observation: σ ≤ π iff m(σ) ≤ m(π); exhaustive for |σ| ≤ 3, |π| ≤ 6
    pats = [p for k in range(4) for p in all_perms(k)]
    for n in range(7):
        for host in all_perms(n):
            mh = m_of(host)
            for patt in pats:
                assert (contains(patt, host) is not None) == matching_contains(
                    m_of(patt), mh
                )


def test_blocks_examples():
    assert blocks(M("1-2 3-4")) == (M("1-2"), M("1-2"))
    assert blocks(m_of(P("21"))) == (m_of(P("21")),)
    assert blocks(M("1-4 2-3 5-6")) == (M("1-4 2-3"), M("1-2"))
    assert blocks(EMPTY_MATCHING) == ()


def test_blocks_reassemble_and_are_indecomposable():
    for m in matchings_up_to(4):
        bs = blocks(m)
        rebuilt = EMPTY_MATCHING
        for b in bs:
            assert len(blocks(b)) <= 1
            rebuilt = uplus(rebuilt, b)
        assert rebuilt == m


def test_connectivity_examples():
    assert not is_connected(M("1-2 3-4"))
    assert is_connected(m_of(P("21")))
    assert is_connected(M("1-2"))
    assert is_connected(EMPTY_MATCHING)
    # m(π) is always ⊎-indecomposable, and connected iff π is sum-indecomposable
    for n in range(1, 7):
        for p in all_perms(n):
            assert len(blocks(m_of(p))) == 1
            assert is_connected(m_of(p)) == (not sum_splits(p))


def test_levels_examples():
    assert levels(EMPTY_MATCHING) == ()
    assert levels(M("1-3 2-5 4-6")) == (((1, 3),), ((2, 5),), ((4, 6),))
    assert levels(m_of(P("21"))) == (((1, 3),), ((2, 4),))
    # level 2 holds 2-4 on the minus side (3-7 crosses it from the right) and
    # 6-8 on the plus side: a level lists its arcs by left end, not by side
    assert levels(M("1-5 2-4 3-7 6-8")) == (((1, 5),), ((3, 7),), ((2, 4), (6, 8)))
    with pytest.raises(PreconditionError):
        levels(M("1-2 3-4"))


def test_levels_only_touch_adjacent_layers():
    for m in matchings_up_to(5):
        if not is_connected(m) or len(m) == 0:
            continue
        layer_of = {}
        for d, layer in enumerate(levels(m)):
            for arc in layer:
                layer_of[arc] = d
        for x in m.arcs:
            for y in m.arcs:
                if x < y and (x[0] < y[0] < x[1] < y[1]):
                    assert abs(layer_of[x] - layer_of[y]) <= 1


def _union_find_components(arcs, subset):
    parent = {i: i for i in subset}

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(subset, 2):
        if crosses(arcs[i], arcs[j]):
            parent[root(i)] = root(j)
    groups = {}
    for i in subset:
        groups.setdefault(root(i), []).append(i)
    return sorted(groups.values())


def _as_dicts(comps):
    """Each component's level lists as {arc index: (BFS level, side)}, side +1
    for plus and -1 for minus, level by level: the shape of
    `conftest.brute_components`.  Checks that every level is nonempty, each
    side list strictly increases and level 0 is ([least arc], [])."""
    out = []
    for comp in comps:
        as_dict = {}
        for level, (plus, minus) in enumerate(comp):
            assert plus or minus
            for side, group in ((1, plus), (-1, minus)):
                assert all(i < j for i, j in zip(group, group[1:])), group
                as_dict.update((i, (level, side)) for i in group)
        assert comp[0] == ([min(as_dict)], [])
        out.append(as_dict)
    return out


def _check_components(arcs, subset, comps):
    """Components against union-find; BFS levels and sides against their
    definitions."""
    comps = _as_dicts(comps)
    assert [sorted(comp) for comp in comps] == _union_find_components(arcs, subset)
    for comp in comps:
        root = min(comp, key=lambda i: arcs[i][0])
        assert next(iter(comp)) == root and comp[root] == (0, 1)
        # BFS order: levels never decrease
        assert [level for level, _ in comp.values()] == sorted(lv for lv, _ in comp.values())
        for i in comp:
            if i == root:
                continue
            level = comp[i][0]
            lower = [j for j in comp if crosses(arcs[i], arcs[j])]
            # BFS level: one more than the least level it crosses
            assert min(comp[j][0] for j in lower) == level - 1
            nu = min(
                (j for j in lower if comp[j][0] == level - 1),
                key=lambda j: arcs[j][0],
            )
            assert comp[i][1] == (1 if arcs[nu][0] < arcs[i][0] else -1)


def test_crossing_graph_core_matches_definitions():
    # every matching with <= 5 arcs and every index subset of it
    for m in matchings_up_to(5):
        arcs = m.arcs
        graph = CrossingGraph(arcs)
        for size in range(len(arcs) + 1):
            for subset in combinations(range(len(arcs)), size):
                _check_components(arcs, subset, graph.components(subset))
                sub = Matching.from_arcs(arcs[i] for i in subset)
                assert [
                    Matching.from_arcs(arcs[i] for i in block)
                    for block in arc_blocks(arcs, subset)
                ] == list(blocks(sub))


def _perturbed_chain(q, rng):
    """The chain 1-3 2-5 4-7 ... (2q-2)-2q, a path q - 1 BFS levels deep, with
    q seeded swaps of adjacent endpoints."""
    chain = [(1, 3)] + [(2 * t, 2 * t + 3) for t in range(1, q - 1)] + [(2 * q - 2, 2 * q)]
    owner = {e: t for t, arc in enumerate(chain) for e in arc}
    for _ in range(q):
        e = rng.randrange(1, 2 * q)
        owner[e], owner[e + 1] = owner[e + 1], owner[e]
    ends = {}
    for e in sorted(owner):
        ends.setdefault(owner[e], []).append(e)
    return Matching(tuple(sorted(tuple(pair) for pair in ends.values())))


def test_crossing_graph_core_matches_definitions_on_deep_components():
    # seeded 20-60-arc matchings: perturbed chains reach deep BFS levels,
    # uniform ones put many arcs on side -1; the full index set and subsets.
    # A side taken from the arc the BFS reaches first fails on both the
    # example below (7-10 is reached from 9-12, but its least neighbour on the
    # level above is 5-8) and the uniform matchings.
    import random

    m = M("1-4 2-11 3-6 5-8 7-10 9-12")
    assert _as_dicts(CrossingGraph(m.arcs).components(range(6))) == [
        {0: (0, 1), 1: (1, 1), 2: (1, 1), 3: (2, 1), 4: (3, 1), 5: (2, 1)}
    ]
    rng = random.Random(1)
    depth = minus_sides = 0
    for t in range(48):
        q = rng.randint(20, 60)
        if t % 2:
            ends = rng.sample(range(1, 2 * q + 1), 2 * q)
            m = Matching.from_arcs(zip(ends[::2], ends[1::2]))
        else:
            m = _perturbed_chain(q, rng)
        graph = CrossingGraph(m.arcs)
        subsets = [list(range(q))]
        subsets += [sorted(rng.sample(range(q), rng.randint(q // 2, q))) for _ in range(3)]
        for subset in subsets:
            comps = graph.components(subset)
            _check_components(m.arcs, subset, comps)
            for comp in _as_dicts(comps):
                depth = max(depth, *(level for level, _ in comp.values()))
                minus_sides += sum(1 for _, side in comp.values() if side < 0)
    assert depth >= 10 and minus_sides >= 100, (depth, minus_sides)


def test_crossing_graph_matches_a_brute_bfs_on_large_envelopes():
    # R(p) of seeded hosts of order 300-1,500, all six families: the mask BFS
    # against a BFS over neighbour sets from `crosses` on all pairs, on the
    # full index set and on seeded subsets.  The graph scanned off the
    # envelope walk (`from_ends`) has the same masks and components, there
    # and on every permutation of order <= 8 and a decreasing host (no arcs)
    import random

    from permsplit.envelope import reduced_envelope, reduced_envelope_walk
    from permsplit.perms import decreasing

    def graphs(p, arcs):
        graph, walked = CrossingGraph(arcs), CrossingGraph.from_ends(reduced_envelope_walk(p)[0])
        assert walked.nbr == graph.nbr, p
        return graph, walked

    for p in [*(p for n in range(9) for p in all_perms(n)), decreasing(300)]:
        arcs = reduced_envelope(p).arcs
        expected = brute_components(arcs, range(len(arcs)))
        for graph in graphs(p, arcs):
            assert _as_dicts(graph.components(range(len(arcs)))) == expected, p
    rng = random.Random(1500)
    depth = minus_sides = 0
    for p in seeded_hosts(1500, 12, 300, 1500):
        arcs = reduced_envelope(p).arcs
        (graph, walked), q = graphs(p, arcs), len(arcs)
        subsets = [range(q)] + [sorted(rng.sample(range(q), rng.randint(q // 4, q))) for _ in range(2)]
        for subset in subsets:
            comps = _as_dicts(graph.components(subset))
            assert comps == brute_components(arcs, subset), (p, len(subset))
            assert _as_dicts(walked.components(subset)) == comps, (p, len(subset))
            depth = max(depth, *(level for comp in comps for level, _ in comp.values()))
            minus_sides += sum(1 for comp in comps for _, side in comp.values() if side < 0)
    assert depth >= 40 and minus_sides >= 1000, (depth, minus_sides)


def test_crossing_graph_refuses_arcs_that_are_not_a_normalized_matching():
    assert CrossingGraph(()).components(()) == []
    for arcs in (
        ((1, 3), (2, 5)),  # endpoints not 1..4
        ((2, 4), (1, 3)),  # not sorted by left end
        ((1, 4), (2, 4), (3, 5)),  # endpoint 4 twice
        ((1, 2), (1, 3), (4, 6)),  # endpoint 1 twice
        ((2, 1), (3, 4)),  # right end before left end
    ):
        with pytest.raises(ValueError):
            CrossingGraph(arcs)


def test_mirror_is_an_involution_that_inverts_m_of():
    assert mirror(M("1-2 3-6 4-5")) == M("1-4 2-3 5-6")
    for m in matchings_up_to(4):
        assert mirror(mirror(m)) == m
        assert len(blocks(mirror(m))) == len(blocks(m))
    for n in range(5):
        for p in all_perms(n):
            assert mirror(m_of(p)) == m_of(inverse(p))


def test_weight_examples_and_additivity():
    assert weight(M("1-2")) == 1
    assert weight(m_of(P("21"))) == 4
    assert weight(M("1-4 2-3")) == 3
    for a in matchings_up_to(3):
        for b in matchings_up_to(2):
            assert weight(uplus(a, b)) == weight(a) + weight(b)


def test_all_matchings_counts():
    # (2q-1)!! matchings on 2q points
    assert [len(list(all_matchings(q))) for q in range(5)] == [1, 1, 3, 15, 105]
    for q in range(4):
        ms = list(all_matchings(q))
        assert len(set(ms)) == len(ms)

from __future__ import annotations

from conftest import EMPTY_MATCHING, matchings_up_to

from permsplit.envelope import (
    decode_envelope,
    envelope_of,
    is_envelope_matching,
    matching_to_perm,
    reduced_envelope,
    reduced_envelope_map,
    reduced_envelope_walk,
)
from permsplit.matchings import Matching, m_of
from permsplit.perms import EMPTY, Permutation, all_perms, lr_minima

P = Permutation.from_text
M = Matching.from_text


def test_envelope_arcs_examples():
    assert envelope_of(P("132")).arcs == M("1-5 2-6 3-4")
    assert envelope_of(P("21")).arcs == M("1-2 3-4")
    assert envelope_of(P("12")).arcs == M("1-4 2-3")
    assert envelope_of(P("231")).arcs == M("1-4 2-3 5-6")
    assert envelope_of(EMPTY).arcs == EMPTY_MATCHING


def test_envelope_path_examples():
    assert envelope_of(P("132")).path == "DDDRRR"
    assert envelope_of(P("21")).path == "DRDR"
    assert envelope_of(P("58641273")).path == "DDDDRRRDRDDDRRRR"


def test_envelope_serialization():
    env = envelope_of(P("12"))
    assert env.to_json_dict() == {"perm": "1 2", "path": "DDRR", "arcs": "1-4 2-3"}


def test_decode_examples():
    assert decode_envelope(M("1-5 2-6 3-4")) == P("132")
    assert decode_envelope(M("1-4 2-3")) == P("12")
    assert decode_envelope(M("1-3 2-4")) is None
    assert decode_envelope(EMPTY_MATCHING) == EMPTY


def test_round_trip_small():
    for n in range(7):
        for p in all_perms(n):
            env = envelope_of(p)
            assert is_envelope_matching(env.arcs)
            assert decode_envelope(env.arcs) == p


def test_down_steps_are_left_endpoints():
    for p in all_perms(5):
        env = envelope_of(p)
        lefts = {a for a, _ in env.arcs.arcs}
        for label, step in enumerate(env.path, start=1):
            assert (step == "D") == (label in lefts)


def test_short_arcs_biject_with_lr_minima():
    for n in range(7):
        for p in all_perms(n):
            env = envelope_of(p)
            short_positions = tuple(
                i
                for i, arc in enumerate(env.elem_to_arc, start=1)
                if arc[1] - arc[0] == 1
            )
            assert short_positions == lr_minima(p)


def test_reduced_envelope_examples():
    assert reduced_envelope(P("132")) == m_of(P("21"))
    assert reduced_envelope(P("12")) == M("1-2")
    assert reduced_envelope(P("213")) == M("1-2")
    assert reduced_envelope(P("321")) == EMPTY_MATCHING


def test_reduced_envelope_map_positions():
    for n in range(6):
        for p in all_perms(n):
            reduced, positions = reduced_envelope_map(p)
            assert reduced == reduced_envelope(p)
            covered = set(range(1, n + 1)) - set(lr_minima(p))
            assert set(positions) == covered
            # built without validation, it passes the validating constructor
            checked = Matching(reduced.arcs)
            assert checked == reduced and hash(checked) == hash(reduced)
            assert all(type(arc) is tuple for arc in reduced.arcs)


def test_matching_to_perm_examples():
    assert matching_to_perm(m_of(P("21"))) == P("132")
    assert matching_to_perm(M("1-2")) == P("12")
    assert matching_to_perm(EMPTY_MATCHING) == EMPTY


def test_matching_to_perm_inverts_reduced_envelope():
    for m in matchings_up_to(3):
        assert reduced_envelope(matching_to_perm(m)) == m


def test_envelope_equivalence_cross_checks_avoids_on_large_hosts():
    # R(p) ⊇ m(σ) iff p ⊇ 1⊕σ: the matching search on the envelope decides the
    # same question as avoids on p.  1⊕21 and 1⊕321 are swept by avoids, the
    # other three backtrack.
    from conftest import seeded_hosts

    from permsplit.matchings import matching_contains
    from permsplit.perms import avoids, direct_sum

    hosts = seeded_hosts(1432, 24)
    for text in ("21", "321", "231", "312", "2413"):
        sigma = P(text)
        one_plus = direct_sum(P("1"), sigma)
        answers = set()
        for p in hosts:
            avoided = avoids(one_plus, p)
            assert avoided == (not matching_contains(m_of(sigma), reduced_envelope(p))), (text, p)
            answers.add(avoided)
        assert answers == {True, False}, text


def test_clique_envelope_equivalence_by_two_sweeps():
    # R(p) ⊇ m(k…1) iff p ⊇ 1⊕(k…1), k = 2, 3, 4: the clique sweep of
    # matching_contains on the envelope against the I_1 ⊕ D_k sweep of avoids
    from conftest import seeded_hosts

    from permsplit.matchings import matching_contains
    from permsplit.perms import avoids, decreasing, direct_sum

    small = [p for n in range(8) for p in all_perms(n)]
    large = seeded_hosts(2013, 12, 1000, 10000)
    for k in (2, 3, 4):
        clique, one_plus = m_of(decreasing(k)), direct_sum(P("1"), decreasing(k))
        for hosts in (small, large):
            answers = set()
            for p in hosts:
                avoided = avoids(one_plus, p)
                assert avoided == (not matching_contains(clique, reduced_envelope(p))), (k, p)
                answers.add(avoided)
            assert answers == {True, False}, (k, len(hosts))


def _path_walk(p: Permutation) -> tuple[str, tuple, tuple, tuple]:
    """The envelope by walking the lattice path step by step, as first
    written: (path, E(p) arcs sorted, arc per element, (R(p) arcs, covered
    positions)), with R(p) renormalised by a sort and an arc-keyed dict."""
    n = len(p)
    steps: list[str] = []
    down_label_of_row: dict[int, int] = {}
    right_label_of_col: dict[int, int] = {}
    height, prefix_min, label = n, n + 1, 0
    for i, v in enumerate(p.values, start=1):
        prefix_min = min(prefix_min, v)
        while height > prefix_min - 1:
            label += 1
            steps.append("D")
            down_label_of_row[height] = label
            height -= 1
        label += 1
        steps.append("R")
        right_label_of_col[i] = label
    elem_to_arc = tuple(
        (down_label_of_row[v], right_label_of_col[i]) for i, v in enumerate(p.values, start=1)
    )
    long_arcs = sorted(arc for arc in elem_to_arc if arc[1] - arc[0] > 1)
    position_of = {arc: i for i, arc in enumerate(elem_to_arc, start=1)}
    rank = {e: r for r, e in enumerate(sorted(e for arc in long_arcs for e in arc), start=1)}
    reduced = tuple((rank[a], rank[b]) for a, b in long_arcs)
    positions = tuple(position_of[arc] for arc in long_arcs)
    return "".join(steps), tuple(sorted(elem_to_arc)), elem_to_arc, (reduced, positions)


def _check_walk(p: Permutation, expected: tuple) -> None:
    """reduced_envelope_walk against the walked R(p): its endpoint sequence
    (k + 1 where arc k opens, -(k + 1) where it closes) and its positions."""
    arcs, positions = expected
    ends = [0] * (2 * len(arcs))
    for k, (a, b) in enumerate(arcs):
        ends[a - 1], ends[b - 1] = k + 1, -(k + 1)
    assert reduced_envelope_walk(p) == (ends, list(positions)), p


def test_envelope_labels_match_the_path_walk():
    # envelope_of against the walk as first written: every permutation of
    # order <= 7 and seeded hosts of order 30-300, and R(p) alone, the
    # certificate path, on every permutation of order 8; the envelope walk's
    # endpoint sequence on all of them and on a decreasing host (no arcs)
    from conftest import seeded_hosts

    from permsplit.perms import decreasing

    for p in [p for n in range(8) for p in all_perms(n)] + seeded_hosts(105, 24):
        env = envelope_of(p)
        reduced, positions = reduced_envelope_map(p)
        got = (env.path, env.arcs.arcs, env.elem_to_arc, (reduced.arcs, positions))
        walked = _path_walk(p)
        assert got == walked, p
        _check_walk(p, walked[3])
    for p in [*all_perms(8), decreasing(300)]:
        reduced, positions = reduced_envelope_map(p)
        walked = _path_walk(p)[3]
        assert (reduced.arcs, positions) == walked, p
        _check_walk(p, walked)

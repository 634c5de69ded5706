"""Unit tests for network planning and cross-segment reconciliation."""

import heapq
import time
from itertools import combinations

import numpy as np
import pytest

from twinfield_qka.errors import PlanningError, UsageError, ValidationError
from twinfield_qka.keyrate import link_rate, transmittance_from_distance
from twinfield_qka.network import (
    PartyGraph,
    Segment,
    _id_key,
    _segment_adjacency_tree,
    derive_global_key,
    minimum_network,
    plan_network,
    plan_rates,
    reconcile_network,
    segment_rate,
    segment_tree,
)

FIG_SEVEN_EDGES = [
    (1, 3, 10.0), (2, 3, 12.0), (3, 4, 11.0),
    (4, 5, 9.0), (5, 6, 8.0), (5, 7, 10.0),
]


def caterpillar_graph():
    return PartyGraph.build([1, 2, 3, 4, 5, 6, 7], FIG_SEVEN_EDGES)


def random_tree_edges(n, rng, low=5.0, high=25.0):
    """Random labeled tree on vertices 0..n-1 with random edge lengths."""
    if n == 2:
        return [(0, 1, float(rng.uniform(low, high)))]
    seq = rng.integers(0, n, size=n - 2)
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(v), float(rng.uniform(low, high))))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((a, b, float(rng.uniform(low, high))))
    return edges


def assert_valid_decomposition(tree_edges, segments):
    vertices = set()
    tree_pairs = set()
    for a, b, _ in tree_edges:
        vertices.update((a, b))
        tree_pairs.add(frozenset((a, b)))
    n = len(vertices)

    covered = set()
    for seg in segments:
        covered.update(seg.members)
        if len(seg.members) == 3:
            a, c, b = seg.members
            assert seg.center == c
            assert frozenset((a, c)) in tree_pairs
            assert frozenset((c, b)) in tree_pairs
        else:
            assert len(seg.members) == 2
            assert frozenset(seg.members) in tree_pairs
    assert covered == vertices, "every party must be in at least one segment"

    triples = sum(1 for s in segments if len(s.members) == 3)
    pairs = len(segments) - triples
    if n % 2:
        assert pairs == 0
        assert 2 * len(segments) + 1 == n
    else:
        assert pairs == 1
        assert triples == (n - 2) // 2

    sets = [set(s.members) for s in segments]
    for i, j in combinations(range(len(sets)), 2):
        assert len(sets[i] & sets[j]) <= 1, "segments may share at most one party"
    if len(sets) > 1:
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(len(sets)):
                if j not in seen and sets[i] & sets[j]:
                    seen.add(j)
                    frontier.append(j)
        assert seen == set(range(len(sets))), "segment sharing graph must be connected"


def assert_edge_partition(tree_edges, segments):
    """Linear-time check: the segments' links partition the tree's edges.

    Together with the counts this implies everything
    assert_valid_decomposition checks, without its all-pairs loop.
    """
    tree_pairs = {frozenset((a, b)) for a, b, _ in tree_edges}
    used = []
    for seg in segments:
        m = seg.members
        used.extend(frozenset(m[i:i + 2]) for i in range(len(m) - 1))
        if len(m) == 3:
            assert seg.center == m[1]
    assert len(used) == len(tree_pairs) == len(set(used))
    assert set(used) == tree_pairs
    assert sum(1 for s in segments if s.is_pair) == len(tree_edges) % 2


def all_pairs_adjacency_tree(plan):
    """Oracle: BFS over segments, testing every pair for a shared party."""
    sets = [set(s.members) for s in plan.segments]
    parent = {0: None}
    order = [0]
    for i in order:
        for j in range(len(sets)):
            if j not in parent and sets[i] & sets[j]:
                parent[j] = i
                order.append(j)
    return parent, order


class TestPartyGraph:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            PartyGraph.build([1, 1, 2], [(1, 2, 5.0)])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            PartyGraph.build([1, 2], [(1, 9, 5.0)])

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValidationError):
            PartyGraph.build([1, 2], [(1, 2, 0.0)])

    def test_euclidean_complete_graph(self):
        g = PartyGraph.build([("a", 0, 0), ("b", 3, 4), ("c", 0, 8)])
        dists = {frozenset((a, b)): km for a, b, km in g.edges}
        assert dists[frozenset(("a", "b"))] == pytest.approx(5.0)
        assert len(g.edges) == 3

    @pytest.mark.parametrize("km", ["x", True, None, float("nan"), float("inf")])
    def test_bad_distance_rejected(self, km):
        with pytest.raises(ValidationError):
            PartyGraph.build([1, 2], [(1, 2, km)])

    def test_edge_arity_rejected(self):
        with pytest.raises(ValidationError):
            PartyGraph.build([1, 2], [(1, 2)])

    @pytest.mark.parametrize("bad", [{}, {"a": 1}, [], [1]])
    def test_bare_list_or_dict_id_rejected(self, bad):
        # A list of length 3 is an (id, x, y) triple; any other is a bad id.
        with pytest.raises(ValidationError):
            PartyGraph.build([bad, 1], [])
        with pytest.raises(ValidationError):
            PartyGraph.build([1, bad], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_id_rejected(self, bad):
        # NaN != NaN: a NaN id once sent Kruskal's find into an endless loop;
        # 10**400 overflowed the float sort key with an OverflowError.
        with pytest.raises(ValidationError, match="finite"):
            PartyGraph.build([bad, 2, 3], [(2, 3, 1.0)])
        with pytest.raises(ValidationError, match="finite"):
            PartyGraph.build([(bad, 0, 0), (2, 1, 0), (3, 0, 5)])

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_id_rejected(self, token):
        text = ('{"parties": [{"id": %s, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0},'
                ' {"id": 3, "x": 0, "y": 5}]}' % token)
        with pytest.raises(ValidationError, match="finite"):
            PartyGraph.from_json(text)

    def test_json_parsing(self):
        text = """
        {"parties": [{"id": 1, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0}],
         "edges": [{"a": 1, "b": 2, "km": 7.5}]}
        """
        g = PartyGraph.from_json(text)
        assert g.edges == ((1, 2, 7.5),)


def kruskal_reference(graph):
    """The Kruskal that sorted with _id_key per comparison: the oracle for minimum_network."""
    edges = []
    for a, b, km in graph.edges:
        lo, hi = sorted((a, b), key=_id_key)
        edges.append((km, lo, hi))
    edges.sort(key=lambda e: (e[0], _id_key(e[1]), _id_key(e[2])))

    parent = {p: p for p in graph.parties}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for km, a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.append((a, b, km))
    if len(tree) != len(graph.parties) - 1:
        comps = {}
        for p in graph.parties:
            comps.setdefault(find(p), []).append(p)
        groups = sorted(
            (sorted(c, key=_id_key) for c in comps.values()),
            key=lambda c: _id_key(c[0]),
        )
        raise PlanningError(f"graph is disconnected; components: {groups}")
    return tree


#: Party slots: the id a party takes, and the equal values an edge may name it
#: by.  True == 1 == 1.0 but True sorts as a string; 2**53 and 2**53 + 1 share
#: the float key 2**53; None and "None" share a string key.
ID_SLOTS = [
    [1, True, 1.0], [0, False, 0.0], [2**53], [2**53 + 1], [-3], [7.5],
    ["a"], ["b"], ["7.5"], ["True"], ["None"], [None], [12], ["12"],
]


def random_mixed_graph(rng):
    slots = [ID_SLOTS[i] for i in rng.choice(len(ID_SLOTS), int(rng.integers(2, 12)), replace=False)]
    parties = [slot[int(rng.integers(len(slot)))] for slot in slots]

    def name(i):  # any equal value of party i, in any type
        return slots[i][int(rng.integers(len(slots[i])))]

    n = len(parties)
    pairs = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.5]
    if rng.random() < 0.8:  # usually connected
        order = rng.permutation(n)
        pairs.extend(zip(order[:-1], order[1:]))
    edges = []
    for i, j in pairs:
        if rng.random() < 0.5:
            i, j = j, i
        km = float(rng.integers(1, 4)) if rng.random() < 0.7 else float(rng.uniform(1, 4))
        edges.append((name(i), name(j), km))
        if rng.random() < 0.1:  # a parallel edge, possibly reversed
            edges.append((name(j), name(i), km))
    return PartyGraph.build(parties, edges)


class TestMinimumNetwork:
    def test_matches_the_reference_kruskal(self):
        rng = np.random.default_rng(5301)
        outcomes = {"tree": 0, "disconnected": 0}
        for _ in range(300):
            g = random_mixed_graph(rng)
            try:
                expected = kruskal_reference(g)
            except PlanningError as exc:
                with pytest.raises(PlanningError) as got:
                    minimum_network(g)
                assert str(got.value) == str(exc)
                outcomes["disconnected"] += 1
                continue
            tree = minimum_network(g)
            # Element types too: True and 1 are equal, but print differently.
            assert [tuple(map(type, e)) for e in tree] == [tuple(map(type, e)) for e in expected]
            assert tree == expected
            outcomes["tree"] += 1
        assert min(outcomes.values()) > 10

    def test_triangle_keeps_two_shortest(self):
        g = PartyGraph.build([1, 2, 3], [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 3.0)])
        tree = minimum_network(g)
        assert sorted(km for _, _, km in tree) == [1.0, 2.0]

    def test_path_graph_is_already_a_tree(self):
        g = PartyGraph.build([1, 2, 3, 4], [(1, 2, 5.0), (2, 3, 6.0), (3, 4, 7.0)])
        tree = minimum_network(g)
        assert sorted(frozenset((a, b)) for a, b, _ in tree) == sorted(
            frozenset((a, b)) for a, b, _ in g.edges
        )

    def test_disconnected_graph_reports_components(self):
        g = PartyGraph.build([1, 2, 3, 4], [(1, 2, 5.0), (3, 4, 6.0)])
        with pytest.raises(PlanningError, match="components"):
            minimum_network(g)

    def test_against_brute_force_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            ids = list(range(n))
            all_pairs = list(combinations(ids, 2))
            keep = [p for p in all_pairs if rng.random() < 0.8]
            # Ensure connectivity by always including a random spanning path.
            order = list(rng.permutation(ids))
            keep.extend(zip(order, order[1:]))
            edges = {}
            for a, b in keep:
                edges[frozenset((a, b))] = float(rng.uniform(1.0, 30.0))
            edge_list = [(tuple(sorted(k))[0], tuple(sorted(k))[1], v) for k, v in edges.items()]
            g = PartyGraph.build(ids, edge_list)
            tree = minimum_network(g)
            total = sum(km for _, _, km in tree)

            best = None
            for combo in combinations(edge_list, n - 1):
                parent = {i: i for i in ids}

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                joined = 0
                for a, b, _ in combo:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
                        joined += 1
                if joined == n - 1:
                    weight = sum(km for _, _, km in combo)
                    best = weight if best is None else min(best, weight)
            assert total == pytest.approx(best, abs=1e-9)


class TestSegmentTree:
    def test_seven_party_path(self):
        edges = [(i, i + 1, 10.0) for i in range(1, 7)]
        segments = segment_tree(edges)
        member_sets = sorted(tuple(sorted(s.members)) for s in segments)
        assert member_sets == [(1, 2, 3), (3, 4, 5), (5, 6, 7)]
        assert sorted(s.center for s in segments) == [2, 4, 6]
        assert_valid_decomposition(edges, segments)

    def test_caterpillar_announcers(self):
        segments = segment_tree(FIG_SEVEN_EDGES)
        member_sets = sorted(tuple(sorted(s.members)) for s in segments)
        assert member_sets == [(1, 2, 3), (3, 4, 5), (5, 6, 7)]
        centers = {tuple(sorted(s.members)): s.center for s in segments}
        assert centers == {(1, 2, 3): 3, (3, 4, 5): 4, (5, 6, 7): 5}
        assert_valid_decomposition(FIG_SEVEN_EDGES, segments)

    def test_three_parties_single_segment(self):
        edges = [(1, 2, 5.0), (2, 3, 6.0)]
        segments = segment_tree(edges)
        assert len(segments) == 1
        assert segments[0].center == 2
        assert segments[0].arm_distances == (5.0, 6.0)

    def test_two_parties_degenerate_pair(self):
        segments = segment_tree([(1, 2, 5.0)])
        assert len(segments) == 1
        assert segments[0].members == (1, 2)
        assert segments[0].arm_distances == (5.0,)

    def test_star_topologies(self):
        for n in (5, 7, 9):
            edges = [(0, i, 10.0 + i) for i in range(1, n)]
            segments = segment_tree(edges)
            assert_valid_decomposition(edges, segments)
            assert all(s.center == 0 for s in segments)

    def test_random_odd_trees_have_exact_count(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 7, 9):
            for _ in range(60):
                edges = random_tree_edges(n, rng)
                segments = segment_tree(edges)
                assert 2 * len(segments) + 1 == n
                assert_valid_decomposition(edges, segments)

    def test_random_even_trees_have_one_pair(self):
        rng = np.random.default_rng(8)
        for n in (4, 6, 8):
            for _ in range(60):
                edges = random_tree_edges(n, rng)
                segments = segment_tree(edges)
                assert_valid_decomposition(edges, segments)

    def test_single_party_rejected(self):
        with pytest.raises(PlanningError):
            segment_tree([])

    def test_cycle_that_leaves_a_party_out_rejected(self):
        # N-1 edges, but the triangle 1-2-3 leaves party 4 unreached.
        edges = [(1, 2, 5.0), (2, 3, 5.0), (1, 3, 5.0), (4, 5, 5.0)]
        with pytest.raises(PlanningError, match="do not connect"):
            segment_tree(edges)

    def test_even_star_pair_is_centred_on_the_hub(self):
        for n in (4, 6, 8, 10):
            edges = [(0, i, 10.0 + i) for i in range(1, n)]
            segments = segment_tree(edges)
            assert_valid_decomposition(edges, segments)
            assert all(s.center == 0 for s in segments)
            assert sum(1 for s in segments if s.is_pair) == 1

    def test_pair_centred_on_its_first_shared_party(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 6, 8, 10, 12):
            for _ in range(30):
                segments = segment_tree(random_tree_edges(n, rng))
                (pair,) = [s for s in segments if s.is_pair]
                others = {p for s in segments if s is not pair for p in s.members}
                shared = [p for p in sorted(pair.members) if p in others]
                assert pair.center == (shared[0] if shared else min(pair.members))

    def test_bool_and_string_ids_mix(self):
        # JSON ids may be booleans; they sort with the strings, not the numbers.
        edges = [("a", True, 1.0), (True, "b", 2.0), ("b", 3, 1.5)]
        segments = segment_tree(edges)
        assert_valid_decomposition(edges, segments)

    def test_random_trees_up_to_two_hundred(self):
        rng = np.random.default_rng(4242)
        for n in range(2, 201):
            for _ in range(3):
                edges = random_tree_edges(n, rng)
                assert_valid_decomposition(edges, segment_tree(edges))

    @pytest.mark.parametrize("n, budget_s", [(1_000, 1.0), (10_000, 5.0)])
    def test_large_random_tree_within_budget(self, n, budget_s):
        edges = random_tree_edges(n, np.random.default_rng(n))
        t0 = time.perf_counter()
        segments = segment_tree(edges)
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"segment_tree took {elapsed:.2f}s at N={n}"
        assert_edge_partition(edges, segments)
        if n <= 1_000:
            assert_valid_decomposition(edges, segments)


class TestPlanRates:
    def test_identical_segments_share_the_rate(self):
        edges = [(i, i + 1, 12.0) for i in range(1, 8)]  # path of 8 -> even N
        segments = segment_tree(edges)
        plan = plan_rates(segments, mu_policy=0.2, tree_edges=edges)
        assert plan.network_rate == min(plan.per_segment_rate)

    def test_uniform_path_rate_equals_single_segment(self):
        edges = [(i, i + 1, 15.0) for i in range(1, 7)]
        plan = plan_rates(segment_tree(edges), mu_policy=0.2, tree_edges=edges)
        single = plan_rates(segment_tree([(1, 2, 15.0), (2, 3, 15.0)]), mu_policy=0.2)
        assert plan.network_rate == pytest.approx(single.network_rate, abs=1e-15)

    def test_stretched_edge_becomes_bottleneck(self):
        edges = [(1, 2, 10.0), (2, 3, 10.0), (3, 4, 10.0), (4, 5, 60.0), (5, 6, 10.0), (6, 7, 10.0)]
        plan = plan_rates(segment_tree(edges), mu_policy=0.2, tree_edges=edges)
        assert plan.bottleneck_distance == 60.0
        worst = plan.per_segment_rate.index(plan.network_rate)
        assert 60.0 in plan.segments[worst].arm_distances

    def test_non_bottleneck_stretch_leaves_rate_unchanged(self):
        base = [(1, 2, 10.0), (2, 3, 10.0), (3, 4, 10.0), (4, 5, 80.0), (5, 6, 10.0), (6, 7, 10.0)]
        stretched = [(1, 2, 18.0)] + base[1:]
        rate0 = plan_rates(segment_tree(base), mu_policy=0.2).network_rate
        rate1 = plan_rates(segment_tree(stretched), mu_policy=0.2).network_rate
        assert rate0 == pytest.approx(rate1, abs=1e-15)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(15)
        edges = random_tree_edges(7, rng)
        perm = {i: c for i, c in enumerate("gfedcba")}
        relabeled = [(perm[a], perm[b], km) for a, b, km in edges]
        rate0 = plan_rates(segment_tree(edges), mu_policy=0.2).network_rate
        rate1 = plan_rates(segment_tree(relabeled), mu_policy=0.2).network_rate
        assert rate0 == pytest.approx(rate1, abs=1e-15)

    def test_diameter_growth_does_not_hurt(self):
        # Growing the chain at fixed nearest-neighbor distance leaves the
        # network rate unchanged even though the end-to-end span explodes.
        rates = []
        for n in (3, 5, 7, 9):
            edges = [(i, i + 1, 20.0) for i in range(1, n)]
            rates.append(plan_rates(segment_tree(edges), mu_policy=0.2).network_rate)
        assert max(rates) - min(rates) < 1e-15

    def test_grid_mu_policy(self):
        edges = [(1, 2, 150.0), (2, 3, 150.0)]
        fixed = plan_rates(segment_tree(edges), mu_policy=0.5)
        tuned = plan_rates(segment_tree(edges), mu_policy=[0.1, 0.2, 0.5])
        assert tuned.network_rate >= fixed.network_rate

    def test_empty_segments_rejected(self):
        with pytest.raises(UsageError):
            plan_rates([], mu_policy=0.2)

    def test_segment_rate_is_its_slowest_link_rate(self):
        pair = Segment(members=(1, 2), center=1, arm_distances=(37.5,))
        eta = transmittance_from_distance(37.5)
        assert segment_rate(pair, 0.3, 0.04) == link_rate(0.3, eta, 0.04)[3]
        triple = Segment(members=(1, 2, 3), center=2, arm_distances=(12.0, 61.0))
        assert segment_rate(triple, 0.3, 0.04) == min(
            link_rate(0.3, transmittance_from_distance(km), 0.04)[3] for km in (12.0, 61.0)
        )

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_intensity_rejected(self, mu):
        with pytest.raises(ValidationError):
            plan_rates(segment_tree([(1, 2, 5.0), (2, 3, 5.0)]), mu_policy=mu)


class TestReconcileNetwork:
    def test_two_segment_worked_example(self):
        plan = plan_rates(segment_tree([(i, i + 1, 10.0) for i in range(1, 5)]), 0.2)
        assert len(plan.segments) == 2
        s1 = np.array([1, 0, 1, 1], dtype=np.uint8)
        s2 = np.array([0, 1, 1, 0], dtype=np.uint8)
        global_key, announcements = reconcile_network([s1, s2], plan)
        np.testing.assert_array_equal(global_key, s1)
        assert len(announcements) == 1
        _, _, bits = announcements[0]
        np.testing.assert_array_equal(bits, [1, 1, 0, 1])
        np.testing.assert_array_equal(derive_global_key(plan, announcements, 1, s2), s1)

    def test_single_segment_no_announcements(self):
        plan = plan_rates(segment_tree([(1, 2, 5.0), (2, 3, 5.0)]), 0.2)
        key = np.array([1, 1, 0], dtype=np.uint8)
        global_key, announcements = reconcile_network([key], plan)
        np.testing.assert_array_equal(global_key, key)
        assert announcements == []

    def test_three_chained_segments(self):
        edges = [(i, i + 1, 10.0) for i in range(1, 7)]
        plan = plan_rates(segment_tree(edges), 0.2, tree_edges=edges)
        rng = np.random.default_rng(31)
        keys = [rng.integers(0, 2, 40, dtype=np.uint8) for _ in plan.segments]
        global_key, announcements = reconcile_network(keys, plan)
        assert len(announcements) == 2
        for i, key in enumerate(keys):
            np.testing.assert_array_equal(
                derive_global_key(plan, announcements, i, key), global_key
            )

    def test_keys_truncated_to_shortest(self):
        plan = plan_rates(segment_tree([(i, i + 1, 10.0) for i in range(1, 5)]), 0.2)
        s1 = np.ones(10, dtype=np.uint8)
        s2 = np.zeros(6, dtype=np.uint8)
        global_key, _ = reconcile_network([s1, s2], plan)
        assert len(global_key) == 6

    def test_empty_key_set_rejected(self):
        plan = plan_rates(segment_tree([(1, 2, 5.0), (2, 3, 5.0)]), 0.2)
        with pytest.raises(UsageError):
            reconcile_network([], plan)

    def test_random_topology_round_trips(self):
        rng = np.random.default_rng(99)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 10))
            edges = random_tree_edges(n, rng)
            segments = segment_tree(edges)
            plan = plan_rates(segments, mu_policy=0.2, tree_edges=edges)
            keys = [rng.integers(0, 2, 32, dtype=np.uint8) for _ in segments]
            global_key, announcements = reconcile_network(keys, plan)
            for i, key in enumerate(keys):
                np.testing.assert_array_equal(
                    derive_global_key(plan, announcements, i, key), global_key
                )
            done += 1


    def test_adjacency_tree_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(303)
        for _ in range(200):
            n = int(rng.integers(2, 80))
            edges = random_tree_edges(n, rng)
            plan = plan_rates(segment_tree(edges), mu_policy=0.2, tree_edges=edges)
            assert _segment_adjacency_tree(plan) == all_pairs_adjacency_tree(plan)


class TestPlanNetwork:
    def test_full_pipeline_on_caterpillar(self):
        plan = plan_network(caterpillar_graph(), mu_policy=0.2)
        assert len(plan.segments) == 3
        assert sorted(plan.intra_announcers) == [3, 4, 5]
        assert plan.inter_announcers == (3, 5)
        assert plan.network_rate == min(plan.per_segment_rate)
        assert len(plan.tree_edges) == 6

    def test_coverage_invariant(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            edges = random_tree_edges(n, rng)
            ids = sorted({v for a, b, _ in edges for v in (a, b)})
            g = PartyGraph.build(ids, edges)
            plan = plan_network(g, mu_policy=0.2)
            covered = set()
            for seg in plan.segments:
                covered.update(seg.members)
            assert covered == set(ids)

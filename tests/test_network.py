"""Unit tests for network planning and cross-segment reconciliation."""

import ast
import inspect
import math
import re
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    FIG_SEVEN_EDGES,
    ID_SLOTS,
    Disconnected,
    assert_valid_decomposition,
    edge_entries,
    id_key,
    kruskal_reference,
    random_tree_edges,
    walk_to_root,
)
from twinfield_qka import network
from twinfield_qka.errors import PlanningError, UsageError, ValidationError
from twinfield_qka.keyrate import link_rate, transmittance_from_distance
from twinfield_qka.network import (
    PartyGraph,
    Segment,
    _segment_links,
    derive_global_key,
    minimum_network,
    plan_network,
    plan_rates,
    reconcile_network,
    segment_tree,
)
from twinfield_qka.simulation import SessionConfig, run_session


def located(triples):
    """Party entries with coordinates, from (id, x, y) triples."""
    return [{"id": p, "x": x, "y": y} for p, x, y in triples]


def tree_graph(edges):
    """The graph of (a, b, km) tree edges, over the ids they name."""
    return PartyGraph.build(list(dict.fromkeys(p for a, b, _ in edges for p in (a, b))),
                            edge_entries(edges))


def caterpillar_graph():
    return PartyGraph.build([1, 2, 3, 4, 5, 6, 7], edge_entries(FIG_SEVEN_EDGES))


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
    assert sum(1 for s in segments if len(s.members) == 2) == len(tree_edges) % 2


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


def test_network_imports_nothing_from_simulation_or_cli():
    # The key-agreement rule is written once, in network, below the session and CLI layers.
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(network))):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert not imported & {"simulation", "cli"}


def test_ids_are_ordered_only_when_the_graph_is_built():
    # Every stage after PartyGraph.build works on positions, so none re-keys the ids.
    found = set()

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if child.name == "_id_key":
                    found.add((module, "def _id_key"))
            elif (isinstance(child, ast.Name) and child.id == "_id_key"
                  or isinstance(child, ast.Attribute) and child.attr == "_id_key"
                  or isinstance(child, ast.alias) and "_id_key" in (child.name, child.asname)):
                found.add((module, scope))
            visit(child, inner, module)

    for path in sorted(Path(network.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path.name)
    assert found == {("network.py", "def _id_key"), ("network.py", "PartyGraph.build")}


class TestPartyGraph:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            PartyGraph.build([1, 1, 2], edge_entries([(1, 2, 5.0)]))

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            PartyGraph.build([1, 2], edge_entries([(1, 9, 5.0)]))

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValidationError):
            PartyGraph.build([1, 2], edge_entries([(1, 2, 0.0)]))

    def test_euclidean_complete_graph(self):
        g = PartyGraph.build(located([("c", 0, 8), ("a", 0, 0), ("b", 3, 4)]))
        assert g.parties == ("a", "b", "c")
        dists = {frozenset((g.parties[i], g.parties[j])): km for i, j, km in g.edges}
        assert dists[frozenset(("a", "b"))] == pytest.approx(5.0)
        assert len(g.edges) == 3
        parties = [("a", 0.5, -2.0), (2, 3.0, 4.0), (None, -7.25, 1e3), (7.5, 0.0, 0.1)]
        ordered = sorted(parties, key=lambda entry: id_key(entry[0]))
        g = PartyGraph.build(located(parties))
        assert g.parties == tuple(p for p, *_ in ordered) == (2, 7.5, None, "a")
        assert g.edges == tuple(
            (i, j, math.dist(ordered[i][1:], ordered[j][1:]))
            for i, j in combinations(range(len(ordered)), 2)
        )

    @pytest.mark.parametrize("km", ["x", True, None, float("nan"), float("inf")])
    def test_bad_distance_rejected(self, km):
        with pytest.raises(ValidationError):
            PartyGraph.build([1, 2], edge_entries([(1, 2, km)]))

    def test_number_beyond_float_range_rejected(self):
        # 10**400 is a valid JSON number that no float holds: float() and
        # math.isfinite once let it out as an OverflowError.
        with pytest.raises(ValidationError, match="must have a finite distance > 0"):
            PartyGraph.build([1, 2], edge_entries([(1, 2, 10**400)]))
        for x, y in [(10**400, 0), (0, -10**400)]:
            with pytest.raises(ValidationError, match="coordinates must be finite numbers"):
                PartyGraph.build(located([(1, x, y), (2, 3, 4), (3, 6, 8)]))

    def test_edge_arity_rejected(self):
        # An edge is the document's own entry: a tuple or a list is not one.
        for bad in ({"a": 1, "b": 2}, {"a": 1, "km": 5.0}, (1, 2, 5.0), [1, 2, 5.0], None):
            with pytest.raises(ValidationError, match='edge entry needs "a", "b" and "km"'):
                PartyGraph.build([1, 2], [bad])

    @pytest.mark.parametrize("bad", [{}, {"a": 1}, [], [1]])
    def test_bare_list_or_dict_id_rejected(self, bad):
        # A dict is a party entry, which needs an "id"; a list is never an id.
        with pytest.raises(ValidationError):
            PartyGraph.build([bad, 1], [])
        with pytest.raises(ValidationError):
            PartyGraph.build([1, bad], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_id_rejected(self, bad):
        # NaN != NaN: a NaN id once sent Kruskal's find into an endless loop;
        # 10**400 overflowed the float sort key with an OverflowError.
        with pytest.raises(ValidationError, match="finite"):
            PartyGraph.build([bad, 2, 3], edge_entries([(2, 3, 1.0)]))
        with pytest.raises(ValidationError, match="finite"):
            PartyGraph.build(located([(bad, 0, 0), (2, 1, 0), (3, 0, 5)]))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_id_rejected(self, token):
        text = ('{"parties": [{"id": %s, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0},'
                ' {"id": 3, "x": 0, "y": 5}]}' % token)
        with pytest.raises(ValidationError, match="finite"):
            PartyGraph.from_json(text)

    @pytest.mark.parametrize("parties, message", [
        ([("a", 0, 0), ("b", 3, 4), ("c", 3, 4)],  # coincident parties
         r"edge \('b', 'c'\) must have a finite distance > 0, got 0.0"),
        ([("a", -1e308, 0), ("b", 0, 0), ("c", 1e308, 0)],  # a distance beyond the float range
         r"edge \('a', 'c'\) must have a finite distance > 0, got inf"),
    ])
    def test_coordinate_distance_out_of_range_rejected(self, parties, message):
        with pytest.raises(ValidationError, match=message):
            PartyGraph.build(located(parties))

    def test_tuple_entry_rejected(self):
        # Coordinates come only in a party entry's "x" and "y"; a tuple is not an id.
        with pytest.raises(ValidationError, match=r"got \('a', 0, 0\)"):
            PartyGraph.build([("a", 0, 0), ("b", 3, 4)])

    @pytest.mark.parametrize("text", ["", '{"parties": [1, 2,', "{'parties': []}"])
    def test_invalid_json_names_the_document(self, text):
        with pytest.raises(ValidationError, match="^network document is not valid JSON: "):
            PartyGraph.from_json(text)

    def test_json_parsing(self):
        text = """
        {"parties": [{"id": 1, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0}],
         "edges": [{"a": 1, "b": 2, "km": 7.5}]}
        """
        g = PartyGraph.from_json(text)
        assert g.parties == (1, 2)
        assert g.edges == ((0, 1, 7.5),)


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
    return PartyGraph.build(parties, edge_entries(edges))


class TestMinimumNetwork:
    def test_matches_the_reference_kruskal(self):
        rng = np.random.default_rng(5301)
        outcomes = {"tree": 0, "disconnected": 0}
        for _ in range(300):
            g = random_mixed_graph(rng)
            try:
                expected = kruskal_reference(g)
            except Disconnected as exc:
                with pytest.raises(PlanningError) as got:
                    minimum_network(g)
                assert str(got.value) == str(exc)
                outcomes["disconnected"] += 1
                continue
            tree = [(g.parties[i], g.parties[j], km) for i, j, km in minimum_network(g)]
            # Element types too: True and 1 are equal, but print differently.
            assert [tuple(map(type, e)) for e in tree] == [tuple(map(type, e)) for e in expected]
            assert tree == expected
            outcomes["tree"] += 1
        assert min(outcomes.values()) > 10

    def test_triangle_keeps_two_shortest(self):
        g = PartyGraph.build([1, 2, 3], edge_entries([(1, 2, 1.0), (2, 3, 2.0), (1, 3, 3.0)]))
        tree = minimum_network(g)
        assert sorted(km for _, _, km in tree) == [1.0, 2.0]

    def test_path_graph_is_already_a_tree(self):
        g = PartyGraph.build([1, 2, 3, 4], edge_entries([(1, 2, 5.0), (2, 3, 6.0), (3, 4, 7.0)]))
        tree = minimum_network(g)
        assert sorted(frozenset((a, b)) for a, b, _ in tree) == sorted(
            frozenset((a, b)) for a, b, _ in g.edges
        )

    def test_disconnected_graph_reports_components(self):
        g = PartyGraph.build([1, 2, 3, 4], edge_entries([(1, 2, 5.0), (3, 4, 6.0)]))
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
            g = PartyGraph.build(ids, edge_entries(edge_list))
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
            assert sum(1 for s in segments if len(s.members) == 2) == 1

    def test_pair_centred_on_its_first_shared_party(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 6, 8, 10, 12):
            for _ in range(30):
                segments = segment_tree(random_tree_edges(n, rng))
                (pair,) = [s for s in segments if len(s.members) == 2]
                others = {p for s in segments if s is not pair for p in s.members}
                shared = [p for p in sorted(pair.members) if p in others]
                assert pair.center == (shared[0] if shared else min(pair.members))

    @pytest.mark.parametrize("edges", [
        [(1, None, 1.0), (None, 2, 2.0), (2, 3, 3.0)],  # None inside the tree
        [(None, "a", 1.0), ("a", "b", 2.0), ("b", "c", 3.0)],  # None is the root
        [(None, "a", 1.0), ("a", "b", 2.0)],
    ])
    def test_none_id_is_a_party_like_any_other(self, edges):
        # A child of the party None was once taken for the root, whose parent is None.
        plan = plan_network(tree_graph(edges))
        assert_valid_decomposition(plan.tree_edges, plan.segments)

    def test_bool_and_string_ids_mix(self):
        # JSON ids may be booleans; they sort with the strings, not the numbers.
        plan = plan_network(tree_graph([("a", True, 1.0), (True, "b", 2.0), ("b", 3, 1.5)]))
        assert_valid_decomposition(plan.tree_edges, plan.segments)

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
        plan = plan_rates(segments, mu=0.2)
        assert plan.network_rate == min(plan.per_segment_rate)

    def test_uniform_path_rate_equals_single_segment(self):
        edges = [(i, i + 1, 15.0) for i in range(1, 7)]
        plan = plan_rates(segment_tree(edges), mu=0.2)
        single = plan_rates(segment_tree([(1, 2, 15.0), (2, 3, 15.0)]), mu=0.2)
        assert plan.network_rate == pytest.approx(single.network_rate, abs=1e-15)

    def test_stretched_edge_becomes_bottleneck(self):
        edges = [(1, 2, 10.0), (2, 3, 10.0), (3, 4, 10.0), (4, 5, 60.0), (5, 6, 10.0), (6, 7, 10.0)]
        plan = plan_rates(segment_tree(edges), mu=0.2)
        assert plan.bottleneck_distance == 60.0
        worst = plan.per_segment_rate.index(plan.network_rate)
        assert 60.0 in plan.segments[worst].arm_distances

    def test_non_bottleneck_stretch_leaves_rate_unchanged(self):
        base = [(1, 2, 10.0), (2, 3, 10.0), (3, 4, 10.0), (4, 5, 80.0), (5, 6, 10.0), (6, 7, 10.0)]
        stretched = [(1, 2, 18.0)] + base[1:]
        rate0 = plan_rates(segment_tree(base), mu=0.2).network_rate
        rate1 = plan_rates(segment_tree(stretched), mu=0.2).network_rate
        assert rate0 == pytest.approx(rate1, abs=1e-15)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(15)
        edges = random_tree_edges(7, rng)
        perm = {i: c for i, c in enumerate("gfedcba")}
        relabeled = [(perm[a], perm[b], km) for a, b, km in edges]
        rate0 = plan_rates(segment_tree(edges), mu=0.2).network_rate
        rate1 = plan_rates(segment_tree(relabeled), mu=0.2).network_rate
        assert rate0 == pytest.approx(rate1, abs=1e-15)

    def test_diameter_growth_does_not_hurt(self):
        # Growing the chain at fixed nearest-neighbor distance leaves the
        # network rate unchanged even though the end-to-end span explodes.
        rates = []
        for n in (3, 5, 7, 9):
            edges = [(i, i + 1, 20.0) for i in range(1, n)]
            rates.append(plan_rates(segment_tree(edges), mu=0.2).network_rate)
        assert max(rates) - min(rates) < 1e-15

    def test_empty_segments_rejected(self):
        with pytest.raises(UsageError):
            plan_rates([], mu=0.2)

    def test_segment_rate_is_its_slowest_link_rate(self):
        pair = Segment(members=(1, 2), center=1, arm_distances=(37.5,))
        triple = Segment(members=(1, 2, 3), center=2, arm_distances=(12.0, 61.0))
        rates = plan_rates([pair, triple], mu=0.3, delta_ec=0.04).per_segment_rate
        assert rates[0] == link_rate(0.3, transmittance_from_distance(37.5), 0.04)[3]
        assert rates[1] == min(
            link_rate(0.3, transmittance_from_distance(km), 0.04)[3] for km in (12.0, 61.0)
        )

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_intensity_rejected(self, mu):
        with pytest.raises(ValidationError):
            plan_rates(segment_tree([(1, 2, 5.0), (2, 3, 5.0)]), mu=mu)


class TestKeyBits:
    """reconcile_network and derive_global_key share one key-bit check."""

    ZEROS = [0, 0, 0]
    #: Each call returns its key's bits unchanged: XOR with all-zero partners.
    CALLS = {
        "reconcile_network": lambda key, plan: reconcile_network([key, TestKeyBits.ZEROS], plan)[0],
        "derive_global_key": lambda key, plan: derive_global_key(
            reconcile_network([TestKeyBits.ZEROS] * 2, plan)[1], [TestKeyBits.ZEROS, key])[1],
    }

    @staticmethod
    def two_segment_plan():
        return plan_rates(segment_tree([(i, i + 1, 10.0) for i in range(1, 5)]), 0.2)

    @pytest.mark.parametrize("key", [[0.5, 1, 0], [-1, 0, 1], [2**70, 0, 1], [2, 1, 0],
                                     [float("nan"), 1, 0], ["1", "0", "1"], [[0, 1], [1, 0]],
                                     np.array([3, 1, 0], dtype=np.uint8), [[0], 1, 0]])
    @pytest.mark.parametrize("call", CALLS)
    def test_non_bits_rejected(self, call, key):
        with pytest.raises(ValidationError, match="key bits"):
            self.CALLS[call](key, self.two_segment_plan())

    @pytest.mark.parametrize("key", [[0, 1, 1], [False, True, True], [0.0, 1.0, 1.0],
                                     np.array([0, 1, 1], dtype=np.int64)])
    @pytest.mark.parametrize("call", CALLS)
    def test_bit_valued_keys_accepted(self, call, key):
        out = self.CALLS[call](key, self.two_segment_plan())
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, [0, 1, 1])

    @pytest.mark.parametrize("short", [0, 1])
    def test_key_shorter_than_announcements_names_its_segment(self, short):
        _, announcements = reconcile_network([[0, 1, 1, 0]] * 2, self.two_segment_plan())
        keys = [[0, 1, 1, 0], [0, 1, 1, 0]]
        keys[short] = [0, 1]
        message = f"segment {short}'s key has 2 bits, announcements 4"
        with pytest.raises(ValidationError, match=message):
            derive_global_key(announcements, keys)

    @pytest.mark.parametrize("n_keys", [0, 1, 3])
    def test_key_count_must_match_linked_segments(self, n_keys):
        _, announcements = reconcile_network([[0, 1, 1, 0]] * 2, self.two_segment_plan())
        with pytest.raises(ValidationError, match=f"got {n_keys} keys for the 2 segments"):
            derive_global_key(announcements, [[0, 1, 1, 0]] * n_keys)


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
        np.testing.assert_array_equal(derive_global_key(announcements, [s1, s2]), [s1, s1])

    def test_identical_keys_announce_zeros(self):
        plan = plan_rates(segment_tree([(i, i + 1, 10.0) for i in range(1, 5)]), 0.2)
        key = np.array([1, 0, 1], dtype=np.uint8)
        _, [(_, _, bits)] = reconcile_network([key, key], plan)
        assert not bits.any()

    def test_single_segment_no_announcements(self):
        plan = plan_rates(segment_tree([(1, 2, 5.0), (2, 3, 5.0)]), 0.2)
        key = np.array([1, 1, 0], dtype=np.uint8)
        global_key, announcements = reconcile_network([key], plan)
        np.testing.assert_array_equal(global_key, key)
        assert announcements == []
        np.testing.assert_array_equal(derive_global_key(announcements, [key]), [key])

    def test_three_chained_segments(self):
        edges = [(i, i + 1, 10.0) for i in range(1, 7)]
        plan = plan_rates(segment_tree(edges), 0.2)
        rng = np.random.default_rng(31)
        keys = [rng.integers(0, 2, 40, dtype=np.uint8) for _ in plan.segments]
        global_key, announcements = reconcile_network(keys, plan)
        assert len(announcements) == 2
        np.testing.assert_array_equal(derive_global_key(announcements, keys), [global_key] * 3)

    def test_keys_truncated_to_shortest(self):
        plan = plan_rates(segment_tree([(i, i + 1, 10.0) for i in range(1, 5)]), 0.2)
        s1 = np.ones(10, dtype=np.uint8)
        s2 = np.zeros(6, dtype=np.uint8)
        global_key, announcements = reconcile_network([s1, s2], plan)
        assert len(global_key) == 6
        np.testing.assert_array_equal(derive_global_key(announcements, [s1, s2]), [[1] * 6] * 2)

    def test_zero_bit_keys_round_trip(self):
        plan = plan_rates(segment_tree([(i, i + 1, 10.0) for i in range(1, 7)]), 0.2)
        keys = [np.zeros(0, dtype=np.uint8)] * 3
        global_key, announcements = reconcile_network(keys, plan)
        assert global_key.shape == (0,) and len(announcements) == 2
        recovered = derive_global_key(announcements, keys)
        assert recovered.shape == (3, 0) and recovered.dtype == np.uint8

    def test_empty_key_set_rejected(self):
        plan = plan_rates(segment_tree([(1, 2, 5.0), (2, 3, 5.0)]), 0.2)
        with pytest.raises(UsageError):
            reconcile_network([], plan)

    @pytest.mark.parametrize("announcements", [
        [(0, 0, [1]), (0, 1, [1])],  # segment 0 announced as a child
        [(0, 1, [1]), (0, 1, [1])],  # segment 1 twice, segment 2 never
        [(1, 2, [1]), (0, 1, [1])],  # a child announced before its parent
        [(0, 1, [1]), (1, 3, [1])],  # a segment beyond the three linked
    ])
    def test_announcements_must_link_each_segment_once(self, announcements):
        with pytest.raises(ValidationError, match="does not link a new segment"):
            derive_global_key(announcements, [[0]] * 3)

    ROW = [0, 1, 1, 0]

    @pytest.mark.parametrize("announcements, named, problem", [
        ([(0, 1, [2, 0, 1, 0]), (1, 2, ROW)], "(0, 1)", "as many bits"),
        ([(0, 1, ROW), (1, 2, [0, 1, 1])], "(1, 2)", "as many bits"),
        ([(0, 1, ROW), (1, 2, [0.5, 1.0, 1.0, 0.0])], "(1, 2)", "as many bits"),
        ([(0, 1, ROW), (1, 2, [[0, 1], [1, 0]])], "(1, 2)", "as many bits"),
        ([(0.0, 1, ROW), (1, 2, ROW)], "(0.0, 1)", "int index"),
        ([(0, 1, 5), (1, 2, ROW)], "(0, 1)", "as many bits"),
        ([(0, 1, ROW), (1, 2, None)], "(1, 2)", "as many bits"),
    ], ids=["bit-2", "short-row", "float-bits", "2-d-row", "float-index", "scalar-row",
            "none-row"])
    def test_announcements_must_be_bits_between_int_indices(self, announcements, named, problem):
        with pytest.raises(ValidationError, match=f"^announcement {re.escape(named)} must .*{problem}"):
            derive_global_key(announcements, [self.ROW] * 3)

    def test_bit_valued_announcements_accepted(self):
        keys = [[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]]
        announcements = [(0, 1, [1.0, 0.0, 1.0, 0.0]), (1, np.int64(2), [True, True, False, True])]
        np.testing.assert_array_equal(derive_global_key(announcements, keys), [keys[0]] * 3)

    def test_random_topology_round_trips(self):
        rng = np.random.default_rng(99)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 10))
            edges = random_tree_edges(n, rng)
            segments = segment_tree(edges)
            plan = plan_rates(segments, mu=0.2)
            keys = [rng.integers(0, 2, 32, dtype=np.uint8) for _ in segments]
            global_key, announcements = reconcile_network(keys, plan)
            recovered = derive_global_key(announcements, keys)
            for i, key in enumerate(keys):
                np.testing.assert_array_equal(walk_to_root(announcements, i, key), global_key)
                np.testing.assert_array_equal(recovered[i], global_key)
            done += 1

    def test_adjacency_tree_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(303)
        for _ in range(200):
            n = int(rng.integers(2, 80))
            edges = random_tree_edges(n, rng)
            plan = plan_rates(segment_tree(edges), mu=0.2)
            parent, order = all_pairs_adjacency_tree(plan)
            assert _segment_links(plan) == [(parent[j], j) for j in order[1:]]


class TestPlanNetwork:
    def test_full_pipeline_on_caterpillar(self):
        plan = plan_network(caterpillar_graph(), mu=0.2)
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
            g = PartyGraph.build(ids, edge_entries(edges))
            plan = plan_network(g, mu=0.2)
            covered = set()
            for seg in plan.segments:
                covered.update(seg.members)
            assert covered == set(ids)

    @pytest.mark.parametrize("graph, shape", [
        (PartyGraph.build(["a", "b", "c", "d", "e", "f"],
                          edge_entries([("a", "b", 12.0), ("b", "c", 20.0), ("c", "d", 8.0),
                                        ("d", "e", 30.0), ("d", "f", 15.0)])), [1, 2, 2]),
        (caterpillar_graph(), [2, 2, 2]),
    ], ids=["six-party-with-pair", "seven-party-caterpillar"])
    def test_segment_rates_agree_with_simulation(self, graph, shape):
        # Without background clicks a link of d km simulated with arms
        # (d/2, d/2) is conclusive with link_rate's sift and never errs, so
        # each segment, simulated as one session, runs at its planned rate.
        mu, n = 0.2, 2_000_000
        plan = plan_network(graph, mu=mu)
        assert sorted(len(seg.arm_distances) for seg in plan.segments) == shape
        for i, (seg, planned) in enumerate(zip(plan.segments, plan.per_segment_rate)):
            links = seg.arm_distances
            arms = [half for d in links for half in (d / 2, d / 2)]
            arms += [0.0, 0.0] * (2 - len(links))  # a pair's idle BC node is never the slower
            res = run_session(SessionConfig(n_pulses=n, mu=mu, arm_lengths=arms,
                                            y0=0.0, dark_count_prob=0.0, seed=i))
            band = 0.0
            for node, qber, d in zip(("AB", "BC"), (res.qber_ab, res.qber_bc), links):
                sift, _, fraction, _ = link_rate(mu, transmittance_from_distance(d))
                sigma = math.sqrt(sift * (1 - sift) / n)
                assert qber == 0.0, (seg, node)
                assert abs(res.conclusive_counts[node] / n - sift) < 5 * sigma, (seg, node)
                band = max(band, 5 * sigma * fraction)
            assert abs(res.skr_per_pulse - planned) < band, seg

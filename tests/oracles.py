"""Test oracles and shared fixtures, each written once.

Every rule here is spelled out again from the paper or the documented
behaviour, not called from the program: this module imports only the
standard library and numpy, never twinfield_qka (tests/test_oracles.py
checks that), so a fault in the program cannot hide inside its own check.
"""

import hashlib
import heapq
import math
import os
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

# --- grids and closed forms --------------------------------------------------

MU_GRID = np.linspace(0.01, 1.0, 20)
ETA_GRID = np.logspace(-5, 0, 20)


def closed_triple(mu):
    """The pair closed form composed over two independent nodes, as `discriminate` reports it."""
    q = (3.0 + math.exp(-4.0 * mu)) / 8.0
    return 1.0 - (1.0 - q) ** 2


# --- sessions ----------------------------------------------------------------


def node_laws(config):
    """Per node (AB, BC): arrival intensity, P(conclusive), P(error | conclusive).

    Fiber passes 10^(-0.2 km / 10) of the light; a gate's background click
    folds the stray-light yield and the dark count, 1 - (1 - y0)(1 - dark).
    Each node sees the weaker of its two arms; it is conclusive when exactly
    one of its two gates clicks, and errs when only the dark port's gate does.
    """
    t_a, t_b, t_bp, t_c = (10.0 ** (-0.2 * km / 10.0) for km in config.arm_lengths)
    p_bg = 1.0 - (1.0 - config.y0) * (1.0 - config.dark_count_prob)
    laws = []
    for m in (min(config.mu * t_a, config.mu * t_b),
              min(config.mu * t_bp, config.mu * t_c)):
        p_sig = 1.0 - (1.0 - p_bg) * math.exp(-2.0 * m)
        p_conc = p_sig * (1.0 - p_bg) + p_bg * (1.0 - p_sig)
        laws.append((m, p_conc, p_bg * (1.0 - p_sig) / p_conc))
    return laws


def key_digest(bits):
    """The SHA-256 hex digest a key is reported by.

    The key's bits, first bit first, are read as one binary number, padded
    with 0 bits on the right to whole bytes; the digest is over its bytes,
    most significant first.
    """
    text = "".join("1" if b else "0" for b in bits)
    text += "0" * (-len(text) % 8)
    return hashlib.sha256(int(text or "0", 2).to_bytes(len(text) // 8, "big")).hexdigest()


# --- networks ----------------------------------------------------------------


def edge_entries(triples):
    """Edge entries of a network document, from (a, b, km) triples."""
    return [{"a": a, "b": b, "km": km} for a, b, km in triples]


#: The seven-party network of the paper's figure, as links and as a `plan` document.
FIG_SEVEN_EDGES = [
    (1, 3, 10.0), (2, 3, 12.0), (3, 4, 11.0),
    (4, 5, 9.0), (5, 6, 8.0), (5, 7, 10.0),
]
FIG_SEVEN = {"parties": [{"id": i} for i in range(1, 8)], "edges": edge_entries(FIG_SEVEN_EDGES)}

#: The seven-party map of demos/network_planning.py.
DEMO_MAP = {"parties": [{"id": name, "x": x, "y": y} for name, x, y in [
    ("amber", 0.0, 4.0), ("birch", 8.0, 0.0), ("cedar", 6.0, 9.0), ("dune", 21.0, 11.0),
    ("elm", 34.0, 8.0), ("fern", 43.0, 15.0), ("grove", 41.0, 1.0)]]}

#: Party slots: the id a party takes, and the equal values an edge may name it
#: by.  True == 1 == 1.0 but True sorts as a string; 2**53 and 2**53 + 1
#: round to the same float; None and "None", and True and "True", print the
#: same text.
ID_SLOTS = [
    [1, True, 1.0], [0, False, 0.0], [2**53], [2**53 + 1], [-3], [7.5],
    ["a"], ["b"], ["7.5"], ["True"], ["None"], [None], [12], ["12"],
]


def prufer_edges(seq, n):
    """The n - 1 (leaf, neighbour) edges of the tree on 0..n-1 with Prüfer sequence seq.

    Decodes smallest leaf first; the last edge joins the two parties left.
    """
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in map(int, seq):
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    return edges + [(heapq.heappop(leaves), heapq.heappop(leaves))]


def random_tree_edges(n, rng, low=5.0, high=25.0):
    """Random labelled tree on 0..n-1, n >= 2, with a uniform length in [low, high) per edge."""
    seq = rng.integers(0, n, size=n - 2)
    return [(a, b, float(rng.uniform(low, high))) for a, b in prufer_edges(seq, n)]


def id_key(party):
    """The order of party ids, total over distinct ids.

    Numbers (not bools) come first, by their exact rational value; then the
    rest by str(), and of a string and a non-string with the same text
    ("None" and None, "True" and True) the string first.
    """
    if isinstance(party, (int, float)) and not isinstance(party, bool):
        return (0, Fraction(party), 0)
    return (1, str(party), 0 if isinstance(party, str) else 1)


class Disconnected(Exception):
    """kruskal_reference's verdict on a graph with no spanning tree."""


def kruskal_reference(graph):
    """Kruskal that sorts with id_key per comparison: the oracle for minimum_network.

    Edges are taken by (km, lower id, higher id) and oriented lower id first.
    A disconnected graph raises Disconnected with the message minimum_network
    must give: the components, each sorted, sorted by their first id.
    """
    edges = []
    for i, j, km in graph.edges:  # positions in graph.parties
        lo, hi = sorted((graph.parties[i], graph.parties[j]), key=id_key)
        edges.append((km, lo, hi))
    edges.sort(key=lambda e: (e[0], id_key(e[1]), id_key(e[2])))

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
        groups = sorted((sorted(c, key=id_key) for c in comps.values()),
                        key=lambda c: id_key(c[0]))
        raise Disconnected(f"graph is disconnected; components: {groups}")
    return tree


def assert_valid_decomposition(tree_edges, segments):
    """The segments cover the tree as the paper asks: 2n + 1 = N, one pair when N is even."""
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


def walk_to_root(announcements, segment_index, segment_key):
    """The group key as one segment recovers it, walking up to segment 0.

    announcements are (parent, child, bits); derive_global_key recovers every
    segment's key in one pass down them instead.
    """
    parent = {child: (par, bits) for par, child, bits in announcements}
    key = np.asarray(segment_key, dtype=np.uint8)
    if announcements:
        key = key[: len(announcements[0][2])]
    seg = segment_index
    while seg != 0:
        par, bits = parent[seg]
        key = key ^ bits
        seg = par
    return key


# --- child processes ---------------------------------------------------------

#: The repository's root directory.
ROOT = Path(__file__).resolve().parent.parent


def child_env():
    """This process's environment with src/ first on PYTHONPATH, for a child Python."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}

"""N-party planning: spanning tree, 3-party segments, rates, reconciliation.

A group of N parties is linked by a minimum-total-length spanning tree.
The tree is decomposed into segments of three consecutive parties (plus at
most one two-party segment when N is even); adjacent segments overlap in
exactly one shared party, every party belongs to at least one segment, and
for odd N the segment count n satisfies 2n + 1 = N.  Each segment runs the
three-party protocol on its two links; shared parties then chain the
per-segment keys into one group key by public XOR announcements.

Two valid segments never share an edge, so segmentation is a partition of
the tree's N-1 edges into pairs of edges that meet at a party, plus one
single edge when N is even.  Such a pairing always exists (Kotzig 1957: a
connected graph with an even number of edges splits into paths of length
two), and a leaf-up walk that pairs the open child edges at each party and
hands any odd one to the parent edge finds one.  The walk is a loop, not a
recursion, and costs O(N log N) for sorting neighbours by id.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

import numpy as np

from .errors import PlanningError, UsageError, ValidationError
from .keyrate import link_rate, optimize_intensity, transmittance_from_distance


def _id_key(party):
    """Deterministic sort key for party ids of mixed types."""
    if isinstance(party, (int, float)) and not isinstance(party, bool):
        return (0, float(party), "")
    return (1, 0.0, str(party))


def _scalar_id(pid):
    """Return pid, rejecting a list, an object or a number that is not finite.

    Party ids are JSON scalars.  NaN is not even equal to itself, so no
    lookup or union-find could ever match it, and _id_key sorts numbers as
    floats, which an int beyond the float range cannot become.
    """
    if isinstance(pid, (list, dict)):
        raise ValidationError(f"party id must be a string or a number, got {pid!r}")
    if isinstance(pid, (int, float)):
        try:
            finite = math.isfinite(pid)
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(f"party id must be finite and within float range, got {pid!r}")
    return pid


@dataclass(frozen=True)
class Segment:
    """One protocol instance: (end, center, end), or a degenerate pair.

    members are stored in path order, so members[1] is the center for
    3-party segments.  arm_distances holds the party-to-party distance of
    each link in km (two links for a triple, one for a pair).
    """

    members: tuple
    center: object
    arm_distances: tuple

    @property
    def is_pair(self) -> bool:
        return len(self.members) == 2


@dataclass(frozen=True)
class NetworkPlan:
    tree_edges: tuple
    segments: tuple
    intra_announcers: tuple  # segment centers, one per segment
    inter_announcers: tuple  # parties shared between segments
    bottleneck_distance: float
    per_segment_rate: tuple
    network_rate: float


@dataclass(frozen=True)
class PartyGraph:
    """Parties with optional planar coordinates and optional explicit edges."""

    parties: tuple
    coordinates: dict
    edges: tuple  # (a, b, km)

    @classmethod
    def build(cls, parties, edges=None) -> "PartyGraph":
        """parties: ids, or (id, x, y) triples; edges: (a, b, km) or None.

        Without explicit edges, every pair of parties is connected at its
        Euclidean distance, which requires coordinates for everyone.
        """
        ids = []
        seen = set()  # for O(1) duplicate and endpoint checks
        coords = {}
        for p in parties:
            if isinstance(p, (tuple, list)):
                if len(p) != 3:
                    raise ValidationError(f"party must be an id or an (id, x, y) triple, got {p!r}")
                pid, x, y = p
                _scalar_id(pid)
                for v in (x, y):
                    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                        raise ValidationError(
                            f"party {pid!r} coordinates must be finite numbers, got ({x!r}, {y!r})"
                        )
                coords[pid] = (float(x), float(y))
            else:
                pid = _scalar_id(p)
            if pid in seen:
                raise ValidationError(f"duplicate party id {pid!r}")
            seen.add(pid)
            ids.append(pid)
        if len(ids) < 2:
            raise ValidationError("a network needs at least two parties")
        if edges is None:
            missing = [p for p in ids if p not in coords]
            if missing:
                raise ValidationError(
                    f"parties without coordinates need explicit edges: {missing}"
                )
            edges = [
                (a, b, math.dist(coords[a], coords[b]))
                for a, b in combinations(ids, 2)
            ]
        clean = []
        for edge in edges:
            try:
                a, b, km = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge must be (a, b, km), got {edge!r}") from None
            if a not in seen or b not in seen:
                raise ValidationError(f"edge ({a!r}, {b!r}) references unknown party")
            if a == b:
                raise ValidationError(f"self-loop on party {a!r}")
            if type(km) is not float and (
                isinstance(km, bool) or not isinstance(km, numbers.Real)
            ):
                raise ValidationError(f"edge ({a!r}, {b!r}) distance must be a number, got {km!r}")
            if not 0 < km < math.inf:  # also false for NaN
                raise ValidationError(
                    f"edge ({a!r}, {b!r}) must have a finite distance > 0, got {km!r}"
                )
            clean.append((a, b, float(km)))
        return cls(parties=tuple(ids), coordinates=coords, edges=tuple(clean))

    @classmethod
    def from_json(cls, text: str) -> "PartyGraph":
        """Parse {"parties": [{"id", "x"?, "y"?}, ...], "edges"?: [{"a","b","km"}]}."""
        doc = json.loads(text)
        if not isinstance(doc, dict) or not isinstance(doc.get("parties"), list):
            raise ValidationError('network document needs a "parties" list')
        parties = []
        for entry in doc["parties"]:
            if isinstance(entry, dict):
                if "id" not in entry:
                    raise ValidationError(f"party entry missing id: {entry!r}")
                pid = _scalar_id(entry["id"])
                if "x" in entry and "y" in entry:
                    parties.append((pid, entry["x"], entry["y"]))
                else:
                    parties.append(pid)
            else:
                parties.append(entry)
        edges = None
        if doc.get("edges") is not None:
            if not isinstance(doc["edges"], list):
                raise ValidationError('"edges" must be a list of {"a", "b", "km"} entries')
            edges = []
            for e in doc["edges"]:
                if not isinstance(e, dict) or not {"a", "b", "km"} <= e.keys():
                    raise ValidationError(f'edge entry needs "a", "b" and "km": {e!r}')
                edges.append((e["a"], e["b"], e["km"]))
        return cls.build(parties, edges)


def minimum_network(graph: PartyGraph) -> list:
    """Minimum-total-length spanning tree edges, via Kruskal.

    Ties are broken by (distance, smaller id pair) so the result is
    deterministic.  Raises PlanningError listing the components when the
    graph is disconnected.
    """
    # One key per party.  An endpoint equal to its party but of another type
    # (True for party 1) has a key of its own, so those few are recomputed.
    key = {p: (_id_key(p), type(p)) for p in graph.parties}
    ranked = []
    for a, b, km in graph.edges:
        ka, type_a = key[a]
        kb, type_b = key[b]
        if type(a) is not type_a:
            ka = _id_key(a)
        if type(b) is not type_b:
            kb = _id_key(b)
        if kb < ka:  # only a strictly smaller key swaps: equal keys keep (a, b)
            ranked.append((km, kb, ka, b, a))
        else:
            ranked.append((km, ka, kb, a, b))
    ranked.sort(key=itemgetter(0, 1, 2))  # stable: ties keep the edge order

    parent = {p: p for p in graph.parties}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for km, _, _, a, b in ranked:
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


def _tree_maps(tree_edges):
    adj = {}
    dist = {}
    for a, b, km in tree_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
        dist[(a, b)] = dist[(b, a)] = float(km)
    return adj, dist


def segment_tree(tree_edges) -> list:
    """Decompose a spanning tree into overlapping 3-party segments.

    Segments are the tree's edges paired up at shared vertices: each triple
    (a, c, b) takes the two edges a-c and c-b, and for even N exactly one
    edge is left over as the pair segment.  Every vertex is covered, two
    segments never share more than one vertex, the segment-sharing graph is
    connected, and the counts are exact: (N-1)/2 triples for odd N, (N-2)/2
    triples plus one pair for even N.

    The tree is rooted at the smallest id and walked leaf-up (reverse BFS
    order, children in id order).  At each vertex the child edges still open
    below it are paired into triples centred on it; an odd one out is paired
    with the vertex's own parent edge.  Only the root can be left with an
    unpaired edge, which happens exactly when N is even.  Segments are
    returned in the order the walk forms them.
    """
    adj, dist = _tree_maps(tree_edges)
    nodes = sorted(adj, key=_id_key)
    n_nodes = len(nodes)
    if n_nodes < 2:
        raise PlanningError("need at least two parties to form a segment")
    if len(tree_edges) != n_nodes - 1:
        raise PlanningError(f"expected a tree, got {len(tree_edges)} edges over {n_nodes} vertices")

    rank = {v: i for i, v in enumerate(nodes)}.__getitem__
    root = nodes[0]
    parent = {root: None}
    order = [root]
    for v in order:  # BFS: the list grows while it is walked
        for w in sorted(adj[v], key=rank):
            if w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != n_nodes:
        raise PlanningError(
            f"the {len(tree_edges)} edges do not connect all {n_nodes} parties"
        )

    def triple(a, c, b):
        if rank(b) < rank(a):
            a, b = b, a
        return Segment(members=(a, c, b), center=c, arm_distances=(dist[(a, c)], dist[(c, b)]))

    # BFS lists each vertex's children contiguously and in id order, so the
    # reverse walk appends them to open_kids in reverse id order.
    open_kids = {v: [] for v in order}
    out = []
    for v in reversed(order):
        kids = open_kids.pop(v)[::-1]
        for i in range(0, len(kids) - 1, 2):
            out.append(triple(kids[i], v, kids[i + 1]))
        up = parent[v]
        if len(kids) % 2:
            if up is not None:
                out.append(triple(kids[-1], v, up))
            else:
                a, b = v, kids[-1]  # the root has the smallest id
                # Centre on the first shared member, else on a.  A member is
                # shared iff another tree edge, and so another segment, meets it.
                center = b if len(adj[a]) == 1 < len(adj[b]) else a
                out.append(Segment(members=(a, b), center=center, arm_distances=(dist[(a, b)],)))
        elif up is not None:
            open_kids[up].append(v)
    return out


def _link_mu(eta: float, mu_policy) -> float:
    if isinstance(mu_policy, (int, float)):
        return float(mu_policy)
    mu_star, _ = optimize_intensity(eta, mu_policy)
    return mu_star


def segment_rate(segment: Segment, mu_policy, delta_ec: float = 0.0) -> float:
    """Bits per pulse for one segment under the loss-only analysis: its slowest link.

    mu_policy is either a fixed intensity used on every link or a grid of
    candidate intensities optimized per link.
    """
    etas = [transmittance_from_distance(d) for d in segment.arm_distances]
    return min(link_rate(_link_mu(eta, mu_policy), eta, delta_ec)[3] for eta in etas)


def plan_rates(segments, mu_policy=0.2, delta_ec: float = 0.0, tree_edges=()) -> NetworkPlan:
    """Predict per-segment and network rates; the network runs at the min.

    The bottleneck distance is the longest link of the rate-limiting
    segment (the nearest-neighbor hop the whole network waits for).
    """
    segments = list(segments)
    if not segments:
        raise UsageError("plan_rates needs at least one segment")
    rates = [segment_rate(s, mu_policy, delta_ec) for s in segments]
    worst = min(range(len(segments)), key=lambda i: rates[i])
    membership = {}
    for seg in segments:
        for p in seg.members:
            membership[p] = membership.get(p, 0) + 1
    shared = tuple(sorted((p for p, k in membership.items() if k > 1), key=_id_key))
    return NetworkPlan(
        tree_edges=tuple(tree_edges),
        segments=tuple(segments),
        intra_announcers=tuple(s.center for s in segments),
        inter_announcers=shared,
        bottleneck_distance=max(segments[worst].arm_distances),
        per_segment_rate=tuple(rates),
        network_rate=rates[worst],
    )


def plan_network(graph: PartyGraph, mu_policy=0.2, delta_ec: float = 0.0) -> NetworkPlan:
    """Full pipeline: spanning tree, segmentation, per-segment rates."""
    tree = minimum_network(graph)
    segments = segment_tree(tree)
    return plan_rates(segments, mu_policy, delta_ec, tree_edges=tree)


# --- key reconciliation across segments -------------------------------------


def _segment_adjacency_tree(plan: NetworkPlan):
    """BFS tree over segments (nodes) connected by shared parties.

    Neighbours of a segment are visited in index order.  A party's segments
    are all reached the first time any of them is expanded, so each party's
    list is scanned once instead of intersecting every pair of segments.
    """
    by_party = {}
    for i, seg in enumerate(plan.segments):
        for p in seg.members:
            by_party.setdefault(p, []).append(i)
    n = len(plan.segments)
    parent = {0: None}
    order = [0]
    for i in order:  # BFS: the list grows while it is walked
        found = []
        for p in plan.segments[i].members:
            for j in by_party.pop(p, ()):
                if j not in parent:
                    parent[j] = i
                    found.append(j)
        order.extend(sorted(found))
    if len(order) != n:
        raise PlanningError("segments do not chain into one connected group")
    return parent, order


def reconcile_network(segment_keys, plan: NetworkPlan):
    """Chain per-segment keys into one group key via public XOR announcements.

    All keys are truncated to the shortest; each announcement is the XOR of
    a parent segment's key with a child segment's key along the segment
    adjacency tree rooted at segment 0.  Returns (global_key, announcements)
    where each announcement is (parent_index, child_index, xor_bits).  The
    group key is segment 0's truncated key; every other segment recovers it
    by XOR-ing its own key with the announcements on its path to the root.
    """
    keys = [np.asarray(k, dtype=np.uint8) for k in segment_keys]
    if not keys:
        raise UsageError("reconcile_network needs at least one segment key")
    if len(keys) != len(plan.segments):
        raise ValidationError(
            f"got {len(keys)} keys for {len(plan.segments)} segments"
        )
    n_bits = min(len(k) for k in keys)
    keys = [k[:n_bits] for k in keys]
    parent, order = _segment_adjacency_tree(plan)
    announcements = [
        (parent[j], j, keys[parent[j]] ^ keys[j]) for j in order if parent[j] is not None
    ]
    return keys[0], announcements


def derive_global_key(plan: NetworkPlan, announcements, segment_index: int, segment_key):
    """Recover the group key from one segment's own key plus the announcements."""
    parent = {child: (par, bits) for par, child, bits in announcements}
    if announcements:
        n_bits = len(announcements[0][2])
    else:
        n_bits = len(segment_key)
    key = np.asarray(segment_key, dtype=np.uint8)[:n_bits]
    seg = segment_index
    while seg != 0:
        if seg not in parent:
            raise ValidationError(f"segment {seg} is not linked by any announcement")
        par, bits = parent[seg]
        key = key ^ bits
        seg = par
    return key

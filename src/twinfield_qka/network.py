"""N-party planning: spanning tree, 3-party segments, rates, reconciliation.

A group of N parties is linked by a minimum-total-length spanning tree.
The tree is decomposed into segments of three consecutive parties (plus at
most one two-party segment when N is even); adjacent segments overlap in
exactly one shared party, every party belongs to at least one segment, and
for odd N the segment count n satisfies 2n + 1 = N.  Each segment runs the
three-party protocol on its two links.  One rule, written only here, then
chains the segment keys into one group key: over a tree of segments linked
by shared parties, a shared party announces each parent key XOR child key
(`reconcile_network`), and every segment recovers segment 0's key as its own
key XOR the announcements on its path to segment 0 (`derive_global_key`).

Two valid segments never share an edge, so segmentation is a partition of
the tree's N-1 edges into pairs of edges that meet at a party, plus one
single edge when N is even.  Such a pairing always exists (Kotzig 1957: a
connected graph with an even number of edges splits into paths of length
two), and a leaf-up walk that pairs the open child edges at each party and
hands any odd one to the parent edge finds one.  The walk is a loop, not a
recursion, and costs O(N log N) for sorting neighbours.

The tree itself comes from Kruskal over the edges sorted by length, which
stops as soon as it holds N-1 edges: on a complete coordinate graph that is
about a quarter of the N(N-1)/2 candidates.

Party ids are arbitrary JSON scalars, ordered once, in `PartyGraph.build`:
numbers (not bools) by exact value, then everything else by `str()`, a string
before a non-string of the same text (so 2**53 < 2**53 + 1 and "True" < true).
`PartyGraph.parties` holds the ids in that order and `PartyGraph.edges` holds
(i, j, km) with positions i < j in it.  Kruskal, the segmentation and the rates
work on positions; `plan_network` maps them back to ids once.  Ties are broken
by position, never by the order the document lists its parties or edges, so a
plan does not depend on that order.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import combinations, starmap
from dataclasses import replace
from operator import index, itemgetter

import numpy as np

from .errors import (FINITE, POSITIVE, PlanningError, UsageError, ValidationError, check,
                     in_domain)
from .keyrate import asymptotic_rate, transmittance_from_distance


def _id_key(party):
    """The order of party ids, total over distinct ids: numbers (not bools) by exact value,
    then the rest by str(), a string before a non-string of the same text."""
    if isinstance(party, (int, float)) and not isinstance(party, bool):
        return (0, party, False)  # an int and a float compare exactly
    return (1, str(party), not isinstance(party, str))


def _scalar_id(pid):
    """Return pid if it is a JSON scalar: a string, a finite number, a bool or None.

    NaN is not even equal to itself, so no lookup could ever match it, and
    no number beyond the float range is an id either: infinities, and ints
    that no float can hold.
    """
    if pid is not None and not isinstance(pid, (str, int, float)):  # bool is an int
        raise ValidationError(f"party id must be a string or a number, got {pid!r}")
    if isinstance(pid, (int, float)) and not isinstance(pid, bool):
        check("party id", pid, FINITE)
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


@dataclass(frozen=True)
class NetworkPlan:
    tree_edges: tuple
    segments: tuple
    inter_announcers: tuple  # parties shared between segments
    bottleneck_distance: float
    per_segment_rate: tuple
    network_rate: float

    @property
    def intra_announcers(self) -> tuple:
        """The segment centers, one per segment."""
        return tuple(s.center for s in self.segments)


@dataclass(frozen=True)
class PartyGraph:
    """Party ids in id order, and the edges between them as (i, j, km) with positions i < j."""

    parties: tuple
    edges: tuple  # (i, j, km)

    @classmethod
    def build(cls, parties, edges=None) -> "PartyGraph":
        """The document's entries: parties as ids or {"id", "x"?, "y"?}, edges as {"a", "b", "km"}.

        Without explicit edges (None), every pair of parties is connected at its
        Euclidean distance, which requires coordinates for everyone.
        """
        listed = {}  # each id to its position, so an endpoint equal to it (True for 1) resolves to it
        coords = {}
        for p in parties:
            entry = p if isinstance(p, dict) else {"id": p}
            if "id" not in entry:
                raise ValidationError(f"party entry missing id: {p!r}")
            pid = _scalar_id(entry["id"])
            if "x" in entry and "y" in entry:
                x, y = entry["x"], entry["y"]
                if not (in_domain(x, FINITE) and in_domain(y, FINITE)):
                    raise ValidationError(
                        f"party {pid!r} coordinates must be finite numbers, got ({x!r}, {y!r})"
                    )
                coords[pid] = (float(x), float(y))
            if pid in listed:
                raise ValidationError(f"duplicate party id {pid!r}")
            listed[pid] = None
        if len(listed) < 2:
            raise ValidationError("a network needs at least two parties")
        if edges is None:
            missing = [p for p in listed if p not in coords]
            if missing:
                raise ValidationError(
                    f"parties without coordinates need explicit edges: {missing}"
                )
        ids = tuple(sorted(listed, key=_id_key))
        listed.update(zip(ids, range(len(ids))))
        if edges is None:
            # Listed ids and float distances: only coincident parties (0 km)
            # and an overflow (inf km) can make an edge invalid.
            kms = list(starmap(math.dist, combinations([coords[p] for p in ids], 2)))
            edges = [(i, j, km) for (i, j), km in zip(combinations(range(len(ids)), 2), kms)]
            if kms and not (in_domain(min(kms), POSITIVE) and in_domain(max(kms), POSITIVE)):
                i, j, km = next(e for e in edges if not in_domain(e[2], POSITIVE))
                raise ValidationError(
                    f"edge ({ids[i]!r}, {ids[j]!r}) must have a finite distance > 0, got {km!r}"
                )
            return cls(parties=ids, edges=tuple(edges))
        clean = []
        for edge in edges:
            if not isinstance(edge, dict) or not {"a", "b", "km"} <= edge.keys():
                raise ValidationError(f'edge entry needs "a", "b" and "km": {edge!r}')
            a, b, km = edge["a"], edge["b"], edge["km"]
            try:
                i, j = listed[a], listed[b]
            except (KeyError, TypeError):  # TypeError: a list or an object
                raise ValidationError(f"edge ({a!r}, {b!r}) references unknown party") from None
            if i == j:
                raise ValidationError(f"self-loop on party {ids[i]!r}")
            if not in_domain(km, POSITIVE):
                what = ("must have a finite distance > 0" if isinstance(km, numbers.Real)
                        and not isinstance(km, bool) else "distance must be a number")
                raise ValidationError(f"edge ({ids[i]!r}, {ids[j]!r}) {what}, got {km!r}")
            clean.append((i, j, float(km)) if i < j else (j, i, float(km)))
        return cls(parties=ids, edges=tuple(clean))

    @classmethod
    def from_json(cls, text: str) -> "PartyGraph":
        """Parse {"parties": [id or {"id", "x"?, "y"?}, ...], "edges"?: [{"a","b","km"}]}."""
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValidationError("network document is nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"network document is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("parties"), list):
            raise ValidationError('network document needs a "parties" list')
        edges = doc.get("edges")
        if edges is not None and not isinstance(edges, list):
            raise ValidationError('"edges" must be a list of {"a", "b", "km"} entries')
        return cls.build(doc["parties"], edges)


def minimum_network(graph: PartyGraph) -> list:
    """Minimum-total-length spanning tree edges (i, j, km) over positions, via Kruskal.

    Edges are taken by (km, i, j), so the tree does not depend on the order
    the edges are listed in.  The scan stops once the tree has N-1 edges.
    Raises PlanningError listing the components when the graph is disconnected.
    """
    ranked = sorted(graph.edges)  # by (i, j); the stable sort by km keeps that within a tie
    ranked.sort(key=itemgetter(2))

    parent = list(range(len(graph.parties)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n_edges = len(graph.parties) - 1
    tree = []
    for edge in ranked:
        ri, rj = find(edge[0]), find(edge[1])
        if ri != rj:
            parent[ri] = rj
            tree.append(edge)
            if len(tree) == n_edges:
                break
    if len(tree) != n_edges:
        comps = {}  # walked in position order: each component in id order, by its first id
        for i, p in enumerate(graph.parties):
            comps.setdefault(find(i), []).append(p)
        raise PlanningError(f"graph is disconnected; components: {list(comps.values())}")
    return tree


def segment_tree(tree_edges) -> list:
    """Decompose a spanning tree into overlapping 3-party segments.

    Segments are the tree's edges paired up at shared vertices: each triple
    (a, c, b) takes the two edges a-c and c-b, and for even N exactly one
    edge is left over as the pair segment.  Every vertex is covered, two
    segments never share more than one vertex, the segment-sharing graph is
    connected, and the counts are exact: (N-1)/2 triples for odd N, (N-2)/2
    triples plus one pair for even N.

    Vertex labels must sort with each other, as positions do.  The tree is
    rooted at the smallest label and walked leaf-up (reverse BFS order,
    children in label order).  At each vertex the child edges still open
    below it are paired into triples centred on it; an odd one out is paired
    with the vertex's own parent edge.  Only the root can be left with an
    unpaired edge, which happens exactly when N is even.  Segments are
    returned in the order the walk forms them.
    """
    adj = {}  # each vertex to {neighbour: km}
    for a, b, km in tree_edges:
        adj.setdefault(a, {})[b] = adj.setdefault(b, {})[a] = float(km)
    n_nodes = len(adj)
    if n_nodes < 2:
        raise PlanningError("need at least two parties to form a segment")
    if len(tree_edges) != n_nodes - 1:
        raise PlanningError(f"expected a tree, got {len(tree_edges)} edges over {n_nodes} vertices")

    root = min(adj)
    parent = {root: None}
    order = [root]
    for v in order:  # BFS: the list grows while it is walked
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != n_nodes:
        raise PlanningError(
            f"the {len(tree_edges)} edges do not connect all {n_nodes} parties"
        )

    def triple(a, c, b):
        if b < a:
            a, b = b, a
        return Segment(members=(a, c, b), center=c, arm_distances=(adj[a][c], adj[c][b]))

    # BFS lists each vertex's children contiguously and in label order, so the
    # reverse walk appends them to open_kids in reverse label order.
    open_kids = {v: [] for v in order}
    out = []
    for v in reversed(order):
        kids = open_kids.pop(v)[::-1]
        for i in range(0, len(kids) - 1, 2):
            out.append(triple(kids[i], v, kids[i + 1]))
        up = parent[v]  # None for the root
        if len(kids) % 2:
            if v is not root:
                out.append(triple(kids[-1], v, up))
            else:
                a, b = v, kids[-1]  # the root has the smallest label
                # Centre on the first shared member, else on a.  A member is
                # shared iff another tree edge, and so another segment, meets it.
                center = b if len(adj[a]) == 1 < len(adj[b]) else a
                out.append(Segment(members=(a, b), center=center, arm_distances=(adj[a][b],)))
        elif v is not root:
            open_kids[up].append(v)
    return out


def plan_rates(segments, mu: float = 0.2, delta_ec: float = 0.0) -> NetworkPlan:
    """Predict per-segment and network rates; the network runs at the min.

    The bottleneck distance is the longest link of the rate-limiting
    segment (the nearest-neighbor hop the whole network waits for).
    """
    segments = list(segments)
    if not segments:
        raise UsageError("plan_rates needs at least one segment")
    rates = [asymptotic_rate([(mu, transmittance_from_distance(d)) for d in s.arm_distances],
                             delta_ec)[1][3]
             for s in segments]
    worst = min(range(len(segments)), key=lambda i: rates[i])
    membership = {}
    for seg in segments:
        for p in seg.members:
            membership[p] = membership.get(p, 0) + 1
    shared = tuple(sorted(p for p, k in membership.items() if k > 1))
    return NetworkPlan(
        tree_edges=(),  # plan_network names them
        segments=tuple(segments),
        inter_announcers=shared,
        bottleneck_distance=max(segments[worst].arm_distances),
        per_segment_rate=tuple(rates),
        network_rate=rates[worst],
    )


def plan_network(graph: PartyGraph, mu: float = 0.2, delta_ec: float = 0.0) -> NetworkPlan:
    """Full pipeline: spanning tree, segmentation, per-segment rates, on positions.

    The plan it returns names the parties by their ids.
    """
    tree = minimum_network(graph)
    plan = plan_rates(segment_tree(tree), mu, delta_ec)
    ids = graph.parties
    return replace(
        plan,
        tree_edges=tuple((ids[i], ids[j], km) for i, j, km in tree),
        segments=tuple(
            replace(s, members=tuple(ids[i] for i in s.members), center=ids[s.center])
            for s in plan.segments
        ),
        inter_announcers=tuple(ids[i] for i in plan.inter_announcers),
    )


# --- key reconciliation across segments -------------------------------------


_NOT_BITS = "key bits must be a 1-D sequence of 0s and 1s"


def _as_key_bits(bits) -> np.ndarray:
    """bits as a 1-D uint8 array; other dtypes are compared, since a cast truncates 0.5."""
    try:
        arr = np.asarray(bits)
    except ValueError:  # sequences of different lengths
        raise ValidationError(_NOT_BITS) from None
    if arr.dtype == np.uint8:
        valid = not arr.tobytes().translate(None, b"\0\1")  # what is left is not a bit
    else:
        ones = arr == 1
        valid = bool((ones | (arr == 0)).all())
        arr = ones.astype(np.uint8)
    if not valid or arr.ndim != 1:
        raise ValidationError(_NOT_BITS)
    return arr


def _segment_links(plan: NetworkPlan) -> list:
    """(parent, child) pairs of a BFS tree over segments linked by shared parties, in BFS order.

    Neighbours of a segment are visited in index order.  A party's segments
    are all reached the first time any of them is expanded, so each party's
    list is scanned once instead of intersecting every pair of segments.
    """
    by_party = {}
    for i, seg in enumerate(plan.segments):
        for p in seg.members:
            by_party.setdefault(p, []).append(i)
    reached = [False] * len(plan.segments)
    reached[0] = True
    order = [0]
    links = []
    for i in order:  # BFS: the list grows while it is walked
        found = []
        for p in plan.segments[i].members:
            for j in by_party.pop(p, ()):
                if not reached[j]:
                    reached[j] = True
                    found.append(j)
        found.sort()
        order.extend(found)
        links.extend((i, j) for j in found)
    if len(order) != len(reached):
        raise PlanningError("segments do not chain into one connected group")
    return links


def reconcile_network(segment_keys, plan: NetworkPlan):
    """Chain per-segment keys into one group key via public XOR announcements.

    All keys are truncated to the shortest; each announcement is the XOR of
    a parent segment's key with a child segment's key along the segment
    adjacency tree rooted at segment 0.  Returns (global_key, announcements)
    where each announcement is (parent_index, child_index, xor_bits).  The
    group key is segment 0's truncated key; derive_global_key recovers it.
    """
    keys = [_as_key_bits(k) for k in segment_keys]
    if not keys:
        raise UsageError("reconcile_network needs at least one segment key")
    if len(keys) != len(plan.segments):
        raise ValidationError(
            f"got {len(keys)} keys for {len(plan.segments)} segments"
        )
    n_bits = min(map(len, keys))
    keys = [k[:n_bits] for k in keys]
    return keys[0], [(i, j, keys[i] ^ keys[j]) for i, j in _segment_links(plan)]


def derive_global_key(announcements, segment_keys) -> np.ndarray:
    """The group key as each segment recovers it: row i is key i XOR its path to segment 0.

    Keys are cut to the announcements' length.  Every parent is announced
    before its children, so one pass down the announcements checks each one
    and builds each path.
    """
    keys = [_as_key_bits(k) for k in segment_keys]
    n = len(announcements) + 1
    if len(keys) != n:
        raise ValidationError(f"got {len(keys)} keys for the {n} segments the announcements link")
    n_bits = len(keys[0])  # the first announcement's length, once there is one
    paths = {0: 0}  # each linked segment to the XOR of the announcements up to segment 0
    for k, (par, child, bits) in enumerate(announcements):
        try:
            bits = _as_key_bits(bits)
        except ValidationError:
            bits = None
        if bits is None or k and len(bits) != n_bits:
            raise ValidationError(f"announcement ({par!r}, {child!r}) must carry as many bits "
                                  "as the first, each 0 or 1")
        n_bits = len(bits)
        try:
            par, child = index(par), index(child)
        except TypeError:
            raise ValidationError(
                f"announcement ({par!r}, {child!r}) must name its segments by int index"
            ) from None
        if par not in paths or child in paths or not 0 < child < n:
            raise ValidationError(f"announcement ({par}, {child}) does not link a new segment")
        paths[child] = paths[par] ^ bits
    for i, key in enumerate(keys):
        if len(key) < n_bits:
            raise ValidationError(f"segment {i}'s key has {len(key)} bits, announcements {n_bits}")
    return np.array([key[:n_bits] ^ paths[i] for i, key in enumerate(keys)])

"""Planning a seven-party key agreement over an irregular metropolitan layout.

Seven parties are scattered on a 60 x 40 km map.  The planner builds the
minimum-total-length network, cuts it into three-party segments that
overlap at shared parties, predicts each segment's key rate, and shows how
the whole group converges on one key: each segment runs the three-party
protocol, then shared parties chain the segment keys together with public
XOR announcements.

The punchline is the last block: the group rate is set by the longest
hop in the network, not by how far apart the extreme parties are.  Moving
three parties 200 km away stretches one hop and the rate collapses; relay
parties that keep every hop short restore it exactly.

Run:  python3 demos/network_planning.py
"""

import math
from itertools import combinations

import numpy as np

from twinfield_qka import (
    PartyGraph,
    derive_global_key,
    plan_network,
    reconcile_network,
)

positions = {
    "amber": (0.0, 4.0),
    "birch": (8.0, 0.0),
    "cedar": (6.0, 9.0),
    "dune": (21.0, 11.0),
    "elm": (34.0, 8.0),
    "fern": (43.0, 15.0),
    "grove": (41.0, 1.0),
}
graph = PartyGraph.build([{"id": name, "x": x, "y": y} for name, (x, y) in positions.items()])
plan = plan_network(graph, mu=0.2)

print("minimum-length backbone")
print("-----------------------")
for a, b, km in plan.tree_edges:
    print(f"  {a:>6} -- {b:<6} {km:6.1f} km")

print("\nsegments (three-party protocol instances)")
print("------------------------------------------")
for seg, rate in zip(plan.segments, plan.per_segment_rate):
    links = " + ".join(f"{d:.1f} km" for d in seg.arm_distances)
    print(f"  {seg.members}  center={seg.center:<6} links {links:<22} rate {rate:.3e}/pulse")

print(f"\nintra-segment announcers : {plan.intra_announcers}")
print(f"inter-segment announcers : {plan.inter_announcers}")
print(f"bottleneck hop           : {plan.bottleneck_distance:.1f} km")
print(f"network rate             : {plan.network_rate:.3e} bits/pulse")

# Dry-run the chaining with random per-segment keys.
rng = np.random.default_rng(7)
keys = [rng.integers(0, 2, 128, dtype=np.uint8) for _ in plan.segments]
global_key, announcements = reconcile_network(keys, plan)
everyone_agrees = bool((derive_global_key(announcements, keys) == global_key).all())
print(f"\n{len(announcements)} public XOR announcements chain the segments")
print(f"all parties derive the same 128-bit group key: {everyone_agrees}")


def plan_layout(layout):
    parties = [{"id": name, "x": x, "y": y} for name, (x, y) in layout.items()]
    return plan_network(PartyGraph.build(parties), mu=0.2)


def report(title, layout, layout_plan):
    span = max(math.dist(a, b) for a, b in combinations(layout.values(), 2))
    print(f"\n{title}")
    print(f"  {len(layout)} parties spanning {span:.1f} km, longest hop "
          f"{layout_plan.bottleneck_distance:.1f} km, "
          f"network rate {layout_plan.network_rate:.3e} bits/pulse")


report("original layout", positions, plan)

# Move the eastern cluster 200 km east: the dune--elm hop becomes ~213 km
# and that one hop now sets the whole group's rate.
far = {k: (x + 200.0, y) if x > 30 else (x, y) for k, (x, y) in positions.items()}
report("eastern cluster moved 200 km east", far, plan_layout(far))

# Relay parties at most 15 km apart on the line from dune to the moved elm
# keep every hop below the original 15.1 km bottleneck, so the group spans
# far more ground at exactly the original rate.
(x0, y0), (x1, y1) = far["dune"], far["elm"]
hops = math.ceil(math.dist(far["dune"], far["elm"]) / 15.0)
relayed = {**far, **{
    f"relay{i}": (x0 + (x1 - x0) * i / hops, y0 + (y1 - y0) * i / hops) for i in range(1, hops)
}}
relayed_plan = plan_layout(relayed)
assert relayed_plan.network_rate == plan.network_rate
report(f"... with {hops - 1} relay parties between dune and elm", relayed, relayed_plan)

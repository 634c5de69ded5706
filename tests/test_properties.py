"""Property tests: invariants that must hold for every input, not just sampled ones."""

import json
from itertools import combinations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twinfield_qka.cli import _plan_json  # noqa: E402
from twinfield_qka.keyrate import asymptotic_rate, link_rate  # noqa: E402
from twinfield_qka.network import PartyGraph, plan_network  # noqa: E402
from twinfield_qka.simulation import _block_events, _block_rng  # noqa: E402
from test_network import ID_SLOTS  # noqa: E402

#: Probabilities in [0, 1], with the edges that break naive samplers
#: (subnormals, p so close to 1 that log1p(-p) is huge, and p == 1) drawn often.
PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1.0 - 2**-53, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(cnt=st.integers(0, 5000), pa=PROBABILITIES, pb=PROBABILITIES,
       qa=PROBABILITIES, qb=PROBABILITIES, seed=st.integers(0, 2**32 - 1))
def test_block_events_are_one_merged_stream(cnt, pa, pb, qa, qb, seed):
    events = _block_events(_block_rng(seed, 0), cnt, [(pa, qa), (pb, qb)])
    for (idx, bob, err), p, q in zip(events, (pa, pb), (qa, qb)):
        assert np.all(np.diff(idx) > 0)
        assert bob.dtype == np.uint8 and np.all(bob <= 1)
        assert err.dtype == bool
        assert len(bob) == len(err) == len(idx)
        if p == 1.0:
            assert np.array_equal(idx, np.arange(cnt))
        if q == 0.0:
            assert not err.any()
        if q == 1.0:
            assert err.all()
    (ab, bob_ab, _), (bc, bob_bc, _) = events
    # Every event is conclusive at one node at least, and Bob's bit is one per event.
    merged = np.union1d(ab, bc)
    assert len(merged) <= cnt
    assert np.array_equal(merged, np.arange(len(merged)))
    _, i_ab, i_bc = np.intersect1d(ab, bc, assume_unique=True, return_indices=True)
    assert np.array_equal(bob_ab[i_ab], bob_bc[i_bc])
    if pa == 0.0:
        assert len(ab) == 0
    if pb == 0.0:
        assert len(bc) == 0


#: link_rate's whole domain: finite mu >= 0 up to the float maximum, and eta in
#: (0, 1] with subnormals and exactly 1 (no loss) drawn often.
INTENSITIES = st.one_of(
    st.floats(0.0, 1.7e308),
    st.sampled_from([0.0, 5e-324, 1e-300, 0.2, 710.0, 4.5e307, 1e308, 1.7e308]),
)
TRANSMITTANCES = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True),
    st.sampled_from([5e-324, 1e-310, 1e-300, 1.0 - 2**-53, 1.0]),
)


@settings(max_examples=500, deadline=None)
@given(mu=INTENSITIES, eta=TRANSMITTANCES)
def test_link_rate_is_finite_and_in_range(mu, eta):
    sift, chi, fraction, bits = link_rate(mu, eta)
    assert np.isfinite([sift, chi, fraction, bits]).all()
    assert 0.0 <= sift <= 1.0
    assert 0.0 <= chi <= 1.0
    assert 0.0 <= fraction <= 1.0
    assert bits >= 0.0


@settings(max_examples=300, deadline=None)
@given(links=st.lists(st.tuples(INTENSITIES, TRANSMITTANCES), min_size=1, max_size=6),
       delta_ec=st.sampled_from([0.0, 0.05, 0.5]))
def test_asymptotic_rate_is_the_first_slowest_link(links, delta_ec):
    bits = [link_rate(mu, eta, delta_ec)[3] for mu, eta in links]
    index, rate = asymptotic_rate(links, delta_ec)
    assert rate == link_rate(*links[index], delta_ec)
    assert rate[3] == min(bits)
    assert index == bits.index(min(bits))


#: Ids whose JSON text needs escapes, or would hold the writer's NUL and
#: bracket separators if a string did not escape its control characters.
ESCAPE_IDS = ['"', "\\", "\0", ",", "[", "]", "]\0[", "\0]", "\u00fc", "\u6771\u4eac",
              "\x1f", "\u2028", "\ud800", ""]
PARTY_IDS = st.one_of(
    st.sampled_from([v for slot in ID_SLOTS for v in slot] + ESCAPE_IDS),
    st.text(max_size=4),
)


def plan_doc(plan, reconciliation):
    """The plan document as a dict, for json.dumps to write: the writer's oracle."""
    return {
        "tree_edges": [[a, b, km] for a, b, km in plan.tree_edges],
        "segments": [
            {"members": list(s.members), "center": s.center,
             "link_km": list(s.arm_distances), "rate_per_pulse": r}
            for s, r in zip(plan.segments, plan.per_segment_rate)
        ],
        "intra_announcers": list(plan.intra_announcers),
        "inter_announcers": list(plan.inter_announcers),
        "bottleneck_km": plan.bottleneck_distance,
        "network_rate_per_pulse": plan.network_rate,
        "reconciliation": reconciliation,
    }


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(PARTY_IDS, min_size=2, max_size=14, unique=True),
       coordinates=st.booleans(), km_scale=st.sampled_from([1.0, 30.0, 400.0]),
       seed=st.integers(0, 2**32 - 1))
def test_plan_writer_is_json_dumps(ids, coordinates, km_scale, seed):
    rng = np.random.default_rng(seed)
    n = len(ids)
    if coordinates:
        xy = rng.uniform(-km_scale, km_scale, (n, 2))
        graph = PartyGraph.build([(p, x, y) for p, (x, y) in zip(ids, xy)])
    else:  # a random spanning tree, with integer lengths that tie, plus extra edges
        edges = [(ids[i], ids[int(rng.integers(i))], float(rng.integers(1, 5)) * km_scale)
                 for i in range(1, n)]
        edges += [(ids[i], ids[j], float(rng.uniform(1, 5)) * km_scale)
                  for i, j in combinations(range(n), 2) if rng.random() < 0.3]
        graph = PartyGraph.build(ids, edges)
    plan = plan_network(graph, mu=float(rng.uniform(0.05, 0.5)))
    reconciliation = {
        "key_length": int(rng.integers(1, 2**40)),
        "announcements": len(plan.segments) - 1,
        "all_parties_converge": bool(rng.random() < 0.5),
        "global_key_sha256": bytes(rng.integers(0, 256, 32, dtype=np.uint8)).hex(),
    }
    text = _plan_json(plan, reconciliation)
    assert text == json.dumps(plan_doc(plan, reconciliation), indent=2, sort_keys=True) + "\n"

"""Property tests: invariants that must hold for every input, not just sampled ones."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twinfield_qka.keyrate import asymptotic_rate, link_rate  # noqa: E402
from twinfield_qka.simulation import _block_events, _block_rng, _successes  # noqa: E402

#: Probabilities in [0, 1], with the edges that break naive gap samplers
#: (subnormals, p so close to 1 that log1p(-p) is huge, and p == 1) drawn often.
PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1.0 - 2**-53, 1.0]),
)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 3000), p=PROBABILITIES, seed=st.integers(0, 2**32 - 1))
def test_successes_are_sorted_distinct_trial_indices(n, p, seed):
    out = _successes(_block_rng(seed, 0), n, p)
    assert out.dtype == np.int64
    assert np.all(np.diff(out) > 0)
    if len(out):
        assert 0 <= out[0] and out[-1] < n
    if p == 1.0:
        assert np.array_equal(out, np.arange(n))


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

"""Property tests: invariants that must hold for every input, not just sampled ones."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twinfield_qka.simulation import _block_rng, _successes  # noqa: E402

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

"""Differential tests: the tier algorithms vs independent brute-force
reference implementations.

The references are written from the paper's prose alone (not from the
library code), so agreement on random inputs is strong evidence the
implementations encode Algorithms 1 and 2 and the SSP rule correctly.
"""

from collections import Counter
from typing import Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hopp import lsp, rsp, ssp
from tests.conftest import make_observation

L = 16

histories = st.lists(
    st.integers(-30, 30).filter(lambda s: s != 0),
    min_size=L - 1,
    max_size=L - 1,
)


def vpns_from_strides(strides, base=100_000):
    vpns = [base]
    for stride in strides:
        vpns.append(vpns[-1] + stride)
    return vpns


# -- references, straight from the paper's text --------------------------------


def reference_ssp(strides) -> Optional[int]:
    """'A stride is dominant in a stride_history if a stride value has
    occurred more than or equal to L/2 times.'"""
    counts = Counter(s for s in strides if s != 0)
    for stride, count in counts.most_common():
        if count >= L // 2:
            return stride
    return None


def reference_lsp(vpns, strides) -> Optional[Tuple[int, int]]:
    """Algorithm 1, literally: pattern_target is the last two strides;
    scan older positions for matches; next_stride and stride_sum get
    majority votes."""
    n = len(vpns)
    target = (strides[-2], strides[-1])
    next_strides = []
    stride_sums = []
    last_end = n - 1
    for end in range(n - 2, 1, -1):
        if (strides[end - 2], strides[end - 1]) == target:
            next_strides.append(strides[end])
            stride_sums.append(vpns[last_end] - vpns[end])
            last_end = end
    if not next_strides:
        return None
    stride_target = Counter(next_strides).most_common(1)[0][0]
    pattern_stride = Counter(stride_sums).most_common(1)[0][0]
    return stride_target, pattern_stride


def reference_rsp(strides, max_stride=2) -> bool:
    """Algorithm 2, literally."""
    ripple_num = 0
    if abs(strides[-1]) <= max_stride:
        ripple_num += 1
    accumulate = 0
    for i in range(len(strides) - 2, -1, -1):
        accumulate += strides[i]
        if abs(accumulate) <= max_stride:
            ripple_num += 1
            accumulate = 0
    return ripple_num >= L // 2


class TestDifferential:
    @given(histories)
    @settings(max_examples=200, deadline=None)
    def test_ssp_matches_reference(self, strides):
        obs = make_observation(vpns_from_strides(strides))
        decision = ssp.train(obs)
        expected = reference_ssp(strides)
        if expected is None:
            assert decision is None
        else:
            assert decision is not None
            # Ties between equally-frequent strides may break either
            # way; the chosen stride must itself be dominant.
            chosen = decision.per_offset_stride
            assert Counter(strides)[chosen] >= L // 2

    @given(histories)
    @settings(max_examples=200, deadline=None)
    def test_lsp_matches_reference(self, strides):
        vpns = vpns_from_strides(strides)
        obs = make_observation(vpns)
        decision = lsp.train(obs)
        expected = reference_lsp(vpns, strides)
        if expected is None:
            assert decision is None
        else:
            stride_target, pattern_stride = expected
            if pattern_stride == 0:
                # The library rejects degenerate zero-period ladders.
                assert decision is None
            else:
                assert decision is not None
                assert decision.fixed_delta == stride_target
                assert decision.per_offset_stride == pattern_stride

    @given(histories)
    @settings(max_examples=200, deadline=None)
    def test_rsp_matches_reference(self, strides):
        obs = make_observation(vpns_from_strides(strides))
        decision = rsp.train(obs)
        assert (decision is not None) == reference_rsp(strides)
        if decision is not None:
            assert decision.per_offset_stride == 1

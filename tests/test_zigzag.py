"""Unit tests for repro.codec.zigzag."""

import numpy as np
import pytest

from repro.codec.entropy import tcoef_fields
from repro.codec.zigzag import (
    CoefficientEvent,
    ZIGZAG_INDEX,
    block_to_events,
    events_to_block,
    scan,
    unscan,
)


class TestScanOrder:
    def test_starts_at_dc_and_first_antidiagonal(self):
        # Classic zig-zag: (0,0), (0,1), (1,0), (2,0), (1,1), (0,2), ...
        assert ZIGZAG_INDEX[:6].tolist() == [0, 1, 8, 16, 9, 2]

    def test_ends_at_bottom_right(self):
        assert ZIGZAG_INDEX[-1] == 63

    def test_is_permutation(self):
        assert sorted(ZIGZAG_INDEX.tolist()) == list(range(64))

    def test_scan_unscan_inverse(self):
        rng = np.random.default_rng(0)
        block = rng.integers(-50, 50, (8, 8))
        np.testing.assert_array_equal(unscan(scan(block)), block)

    def test_scan_wrong_shape(self):
        with pytest.raises(ValueError):
            scan(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            unscan(np.zeros(32))


class TestCoefficientEvent:
    def test_zero_level_rejected(self):
        with pytest.raises(ValueError):
            CoefficientEvent(last=False, run=0, level=0)

    def test_run_range(self):
        with pytest.raises(ValueError):
            CoefficientEvent(last=False, run=64, level=1)
        with pytest.raises(ValueError):
            CoefficientEvent(last=False, run=-1, level=1)


class TestBlockToEvents:
    def test_empty_block(self):
        assert block_to_events(np.zeros((8, 8), dtype=np.int64)) == []

    def test_single_dc(self):
        block = np.zeros((8, 8), dtype=np.int64)
        block[0, 0] = 5
        events = block_to_events(block)
        assert events == [CoefficientEvent(last=True, run=0, level=5)]

    def test_runs_counted(self):
        block = np.zeros((8, 8), dtype=np.int64)
        block[0, 0] = 3   # scan position 0
        block[1, 0] = -2  # scan position 2 → run of 1 after position 0
        events = block_to_events(block)
        assert events == [
            CoefficientEvent(last=False, run=0, level=3),
            CoefficientEvent(last=True, run=1, level=-2),
        ]

    def test_skip_first_omits_dc(self):
        block = np.zeros((8, 8), dtype=np.int64)
        block[0, 0] = 99  # must be ignored
        block[0, 1] = 4   # scan position 1 → run 0 after skipping DC
        events = block_to_events(block, skip_first=1)
        assert events == [CoefficientEvent(last=True, run=0, level=4)]

    def test_last_flag_on_final_event_only(self):
        rng = np.random.default_rng(1)
        block = rng.integers(-3, 4, (8, 8))
        events = block_to_events(block)
        if events:
            assert all(not e.last for e in events[:-1])
            assert events[-1].last


class TestRoundTrip:
    @pytest.mark.parametrize("skip_first", [0, 1])
    def test_events_to_block_inverse(self, skip_first):
        rng = np.random.default_rng(2)
        for _ in range(20):
            block = rng.integers(-5, 6, (8, 8))
            if skip_first:
                block[0, 0] = 0
            events = block_to_events(block, skip_first=skip_first)
            if not events:
                continue
            back = events_to_block(events, skip_first=skip_first)
            np.testing.assert_array_equal(back, block)

    def test_empty_events_give_zero_block(self):
        np.testing.assert_array_equal(events_to_block([]), np.zeros((8, 8)))

    def test_bad_last_placement_rejected(self):
        events = [
            CoefficientEvent(last=True, run=0, level=1),
            CoefficientEvent(last=True, run=0, level=1),
        ]
        with pytest.raises(ValueError, match="LAST"):
            events_to_block(events)

    def test_overflow_rejected(self):
        events = [CoefficientEvent(last=False, run=63, level=1),
                  CoefficientEvent(last=True, run=10, level=1)]
        with pytest.raises(ValueError, match="overflow"):
            events_to_block(events)


class TestTcoefFields:
    # Equality with block_to_events + write_events is property-tested in
    # test_property_codec.py; these are the argument checks.
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="skip_first"):
            tcoef_fields(np.zeros((1, 8, 8)), skip_first=2)
        with pytest.raises(ValueError, match="must end in"):
            tcoef_fields(np.zeros((1, 8, 4)))

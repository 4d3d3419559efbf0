"""Unit tests for repro.me.stats."""

import numpy as np
import pytest

from repro.me.stats import SearchStats


class TestSearchStats:
    def test_initial_state(self):
        s = SearchStats()
        assert s.blocks == 0
        assert s.avg_positions_per_block == 0.0
        assert s.full_search_fraction == 0.0

    def test_record_accumulates(self):
        s = SearchStats()
        s.record_block(10)
        s.record_block(20, used_full_search=True)
        assert s.blocks == 2
        assert s.positions == 30
        assert s.avg_positions_per_block == 15.0
        assert s.full_search_fraction == 0.5

    def test_decision_counting(self):
        s = SearchStats()
        s.record_block(5, decision="low_cost")
        s.record_block(5, decision="low_cost")
        s.record_block(969, decision="critical", used_full_search=True)
        assert s.decisions == {"low_cost": 2, "critical": 1}

    def test_positions_must_be_positive(self):
        with pytest.raises(ValueError):
            SearchStats().record_block(0)

    def test_merge(self):
        a = SearchStats()
        a.record_block(10, decision="low_cost")
        b = SearchStats()
        b.record_block(20, used_full_search=True, decision="critical")
        a.merge(b)
        assert a.blocks == 2
        assert a.positions == 30
        assert a.full_search_blocks == 1
        assert a.decisions == {"low_cost": 1, "critical": 1}

    @pytest.mark.parametrize(
        "positions, used, decisions",
        [
            ([[9, 969]], [[False, True]], None),
            ([[5, 974], [5, 5]], [[False, True], [False, False]], [["low_cost", "critical"], ["low_cost", "low_cost"]]),
            ([[969, 969, 969]], True, None),
        ],
        ids=["mask", "decisions", "all-full-search"],
    )
    def test_record_frame_matches_record_block(self, positions, used, decisions):
        """The frame drivers' bulk accounting leaves exactly the counters
        the same blocks leave one at a time."""
        positions = np.array(positions)
        used_grid = np.broadcast_to(used, positions.shape)
        bulk, walked = SearchStats(), SearchStats()
        bulk.record_frame(
            positions, used_full_search=np.array(used), decisions=None if decisions is None else np.array(decisions)
        )
        for (r, c), count in np.ndenumerate(positions):
            walked.record_block(
                int(count),
                used_full_search=bool(used_grid[r, c]),
                decision=None if decisions is None else decisions[r][c],
            )
        for counter in ("blocks", "positions", "full_search_blocks", "decisions"):
            assert getattr(bulk, counter) == getattr(walked, counter), counter
            assert type(getattr(bulk, counter)) is type(getattr(walked, counter)), counter
        with pytest.raises(ValueError, match="positions must be >= 1"):
            bulk.record_frame(np.where(positions == positions.max(), 0, positions))

    def test_repr(self):
        s = SearchStats()
        s.record_block(42)
        assert "42.0" in repr(s)

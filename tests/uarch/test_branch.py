"""Unit tests for the gshare/bimodal branch predictor."""

import pytest

from repro.uarch import GShareBranchPredictor
from repro.uarch.branch import WEAK_NOT_TAKEN


@pytest.fixture
def predictor():
    return GShareBranchPredictor(table_size=64, history_bits=0)


class TestConstruction:
    def test_invalid_table_size(self):
        with pytest.raises(ValueError):
            GShareBranchPredictor(table_size=60)

    def test_invalid_history_bits(self):
        with pytest.raises(ValueError):
            GShareBranchPredictor(history_bits=31)


class TestTraining:
    def test_initial_prediction_is_not_taken(self, predictor):
        # WEAK_NOT_TAKEN initial state: a not-taken branch predicts correctly.
        assert predictor.execute(0x400, taken=False, owner="a") is True

    def test_taken_branch_trains_after_two_executions(self, predictor):
        predictor.execute(0x400, taken=True, owner="a")   # mispredict, trains up
        predictor.execute(0x400, taken=True, owner="a")   # now weak-taken
        assert predictor.execute(0x400, taken=True, owner="a") is True

    def test_saturation_resists_single_flip(self, predictor):
        for _ in range(4):
            predictor.execute(0x400, taken=True, owner="a")  # strong taken
        predictor.execute(0x400, taken=False, owner="a")      # one anomaly
        assert predictor.execute(0x400, taken=True, owner="a") is True

    def test_stats_accumulate(self, predictor):
        predictor.execute(0x400, taken=True, owner="a")
        predictor.execute(0x400, taken=True, owner="a")
        assert predictor.stats.predictions["a"] == 2
        assert predictor.stats.mispredictions["a"] >= 1

    def test_biased_stream_converges_to_low_mispredicts(self, predictor):
        import random

        rng = random.Random(1)
        mispredicts = 0
        # Warm up.
        for _ in range(100):
            predictor.execute(0x400, taken=rng.random() < 0.95, owner="a")
        predictor.stats.reset()
        for _ in range(1000):
            taken = rng.random() < 0.95
            if not predictor.execute(0x400, taken, owner="a"):
                mispredicts += 1
        assert mispredicts / 1000 < 0.15


def _trained_entries(predictor):
    """Table entries no longer in their initial weak-not-taken state."""
    return sum(1 for counter in predictor._table if counter != WEAK_NOT_TAKEN)


class TestOwnershipDisturbance:
    def test_retraining_by_other_owner_is_counted(self, predictor):
        # The kernel retrains the user's entry; the user's next branch
        # mispredicts and is counted against the user.
        predictor.execute(0x400, taken=True, owner="user")
        predictor.execute(0x400, taken=True, owner="user")
        predictor.execute(0x400, taken=False, owner="kernel")
        predictor.execute(0x400, taken=False, owner="kernel")
        assert predictor.execute(0x400, taken=True, owner="user") is False
        assert predictor.stats.mispredictions["user"] == 2
        assert predictor.stats.predictions["kernel"] == 2

    def test_distinct_pcs_map_to_distinct_entries_bimodal(self, predictor):
        # With 0 history bits and <= table_size distinct pcs at stride 4,
        # there is no aliasing.
        for site in range(64):
            predictor.execute(0x1000 + site * 4, True, "a")
        assert _trained_entries(predictor) == 64


class TestHistoryMode:
    def test_history_changes_index(self):
        predictor = GShareBranchPredictor(table_size=64, history_bits=4)
        # Execute the same pc with different preceding history; the pattern
        # should touch more than one table entry.
        predictor.execute(0x100, True, "a")
        predictor.execute(0x200, True, "a")  # shifts history
        predictor.execute(0x100, True, "a")
        assert _trained_entries(predictor) >= 2

    def test_reset_state(self):
        predictor = GShareBranchPredictor(table_size=64, history_bits=4)
        predictor.execute(0x100, True, "a")
        predictor.reset_state()
        assert _trained_entries(predictor) == 0
        assert predictor._history == 0

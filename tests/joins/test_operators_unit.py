"""Unit tests for the distributed SPO operators' internals."""

import pytest

from repro.core import JoinType, Op, QuerySpec, WindowSpec, make_tuple
from repro.core.window import MergeClock, MergePolicy
from repro.joins.operators import SPOConfig


class TestMergeClock:
    def test_count_based_epochs(self):
        clock = MergeClock(MergePolicy(WindowSpec.count(100, 20)))
        fired = []
        for i in range(60):
            t = make_tuple(i, "T", 0.0, 0.0)
            fired.append(clock.advance(t))
        assert sum(fired) == 3
        assert clock.epoch == 3
        # Boundaries land exactly every delta tuples.
        assert [i for i, f in enumerate(fired) if f] == [19, 39, 59]

    def test_sub_interval_epochs(self):
        clock = MergeClock(MergePolicy(WindowSpec.count(100, 20), sub_intervals=4))
        for i in range(20):
            clock.advance(make_tuple(i, "T", 0.0, 0.0))
        assert clock.epoch == 4  # delta = 5

    def test_time_based_epochs(self):
        clock = MergeClock(MergePolicy(WindowSpec.time(1.0, 0.2)))
        fired = []
        for i in range(100):
            t = make_tuple(i, "T", 0.0, 0.0, event_time=i * 0.01)
            fired.append(clock.advance(t))
        # First boundary at first_event + 0.2, then every 0.2s.
        assert sum(fired) == 4
        assert clock.epoch == 4

    def test_identical_streams_agree(self):
        """Two clocks fed the same tuples fire at identical points —
        the property the distributed operators rely on."""
        policy = MergePolicy(WindowSpec.count(50, 10))
        a, b = MergeClock(policy), MergeClock(policy)
        for i in range(200):
            t = make_tuple(i, "T", 0.0, 0.0, event_time=i * 0.003)
            assert a.advance(t) == b.advance(t)
        assert a.epoch == b.epoch


class TestSPOConfig:
    def test_defaults(self, q1_query):
        config = SPOConfig(q1_query, WindowSpec.count(100, 20))
        assert config.two_stream
        assert config.global_max_batches == 4
        assert config.state_strategy == "rr"

    def test_probe_side_routing(self, q1_query, q3_query):
        config = SPOConfig(q1_query, WindowSpec.count(100, 20))
        assert config.probe_is_left(make_tuple(0, "R", 1, 2))
        assert not config.probe_is_left(make_tuple(0, "S", 1, 2))
        self_config = SPOConfig(q3_query, WindowSpec.count(100, 20))
        assert self_config.probe_is_left(make_tuple(0, "anything", 1, 2))

    def test_invalid_strategy_rejected(self, q1_query):
        with pytest.raises(ValueError):
            SPOConfig(q1_query, WindowSpec.count(100, 20), state_strategy="gossip")

    def test_batch_factory_default_builds_vector_pojoin(self, q3_query):
        from repro.core import build_merge_batch
        from repro.core.immutable import ImmutableBatch
        from repro.core.pojoin_numpy import VectorPOJoinBatch
        from repro.indexes import BPlusTree

        config = SPOConfig(q3_query, WindowSpec.count(100, 20))
        trees = [BPlusTree() for __ in q3_query.predicates]
        merge = build_merge_batch(0, q3_query, trees)
        batch = config.batch_factory(q3_query, merge)
        assert isinstance(batch, VectorPOJoinBatch)
        assert isinstance(batch, ImmutableBatch)

    def test_invalid_batch_size_rejected(self, q3_query):
        with pytest.raises(ValueError):
            SPOConfig(q3_query, WindowSpec.count(100, 20), batch_size=0)

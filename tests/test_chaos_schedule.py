"""Tests for repro.chaos.spec and repro.chaos.schedule: validation and
seed-keyed determinism (same seed => identical fault schedule)."""

import pytest

from repro.chaos.schedule import (
    DELAY,
    DELIVER,
    DROP,
    DUPLICATE,
    MASK64,
    PHI,
    TARGETED_LANE,
    FaultSchedule,
    draw_hold,
    mix64,
)
from repro.chaos.spec import FaultSpec


class TestFaultSpecValidation:
    def test_defaults_are_the_reliable_network(self):
        spec = FaultSpec()
        assert spec.is_null()
        assert spec.intensity() == 0.0

    def test_any_knob_leaves_null(self):
        assert not FaultSpec(drop=0.1).is_null()
        assert not FaultSpec(delay=0.1).is_null()
        assert not FaultSpec(duplicate=0.1).is_null()
        assert not FaultSpec(reorder=0.1).is_null()
        assert not FaultSpec(partition_period=8, partition_width=2).is_null()

    @pytest.mark.parametrize("name", ["drop", "delay", "duplicate", "reorder"])
    def test_probabilities_bounded(self, name):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(**{name: 1.5})
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(**{name: -0.1})

    def test_max_delay_positive(self):
        with pytest.raises(ValueError, match="max_delay"):
            FaultSpec(max_delay=0)

    def test_partition_width_needs_period(self):
        with pytest.raises(ValueError, match="partition_width"):
            FaultSpec(partition_width=2)

    def test_partition_width_below_period(self):
        with pytest.raises(ValueError, match="permanently partitioned"):
            FaultSpec(partition_period=4, partition_width=4)

    def test_stop_after_start(self):
        with pytest.raises(ValueError, match="stop_round"):
            FaultSpec(start_round=10, stop_round=10)

    def test_active_window(self):
        spec = FaultSpec(drop=0.1, start_round=5, stop_round=10)
        assert not spec.active_in(4)
        assert spec.active_in(5)
        assert spec.active_in(9)
        assert not spec.active_in(10)

    def test_open_ended_window(self):
        spec = FaultSpec(drop=0.1, start_round=3)
        assert spec.active_in(10_000)

    def test_intensity_sums_knobs(self):
        spec = FaultSpec(
            drop=0.1, delay=0.2, duplicate=0.05,
            partition_period=8, partition_width=2,
        )
        assert spec.intensity() == pytest.approx(0.1 + 0.2 + 0.05 + 0.25)

    def test_dict_round_trip(self):
        spec = FaultSpec(drop=0.1, delay=0.2, max_delay=3, stop_round=50)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"drop": 0.1, "jitter": 0.5})


def round_fates(schedule, round_no, count):
    """The fates of ``count`` distinct messages sent in ``round_no``."""
    n = schedule.n
    return [
        schedule.fate(round_no, i % n, (i // n) % n, i // (n * n))
        for i in range(count)
    ]


class TestMix64:
    def test_pinned_to_published_splitmix64_sequence(self):
        # SplitMix64 seeded with 0: the k-th output is mix64(k * PHI).
        assert [mix64((k * PHI) & MASK64) for k in (1, 2, 3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]


class TestScheduleDeterminism:
    SPEC = FaultSpec(drop=0.2, delay=0.2, max_delay=3, duplicate=0.1)

    def test_same_seed_identical_decisions(self):
        a = FaultSchedule(42, self.SPEC, 16)
        b = FaultSchedule(42, self.SPEC, 16)
        for round_no in range(20):
            assert round_fates(a, round_no, 50) == round_fates(b, round_no, 50)

    def test_decisions_are_pure(self):
        schedule = FaultSchedule(42, self.SPEC, 16)
        first = round_fates(schedule, 7, 50)
        assert round_fates(schedule, 7, 50) == first

    def test_different_seeds_differ(self):
        a = FaultSchedule(42, self.SPEC, 16)
        b = FaultSchedule(43, self.SPEC, 16)
        rounds = [round_fates(a, r, 50) for r in range(10)]
        assert rounds != [round_fates(b, r, 50) for r in range(10)]

    def test_rounds_are_independent_streams(self):
        # Round r's fates do not depend on whether earlier rounds were
        # ever drawn.
        fresh = FaultSchedule(42, self.SPEC, 16)
        warmed = FaultSchedule(42, self.SPEC, 16)
        for round_no in range(9):
            round_fates(warmed, round_no, 50)
        assert round_fates(fresh, 9, 50) == round_fates(warmed, 9, 50)

    def test_inactive_round_delivers_everything(self):
        spec = FaultSpec(drop=0.9, start_round=100)
        schedule = FaultSchedule(42, spec, 16)
        assert round_fates(schedule, 5, 10) == [(DELIVER, 0)] * 10

    def test_delay_holds_bounded(self):
        spec = FaultSpec(delay=1.0, max_delay=3)
        schedule = FaultSchedule(42, spec, 16)
        holds = set()
        for fate, hold in round_fates(schedule, 0, 200):
            assert fate == DELAY
            assert 1 <= hold <= 3
            holds.add(hold)
        assert holds == {1, 2, 3}

    def test_targeted_lane_holds_bounded(self):
        schedule = FaultSchedule(42, self.SPEC, 16)
        holds = [
            draw_hold(schedule.message_hash(4, src, dst, 0), TARGETED_LANE, 5)
            for src in range(16)
            for dst in range(16)
        ]
        assert set(holds) == {1, 2, 3, 4, 5}

    def test_fates_roughly_match_probabilities(self):
        schedule = FaultSchedule(42, self.SPEC, 16)
        fates = [
            fate
            for round_no in range(40)
            for fate, _ in round_fates(schedule, round_no, 100)
        ]
        total = len(fates)
        assert 0.15 < fates.count(DROP) / total < 0.25
        assert 0.15 < fates.count(DELAY) / total < 0.25
        assert 0.05 < fates.count(DUPLICATE) / total < 0.15
        assert 0.4 < fates.count(DELIVER) / total < 0.6

    def test_fate_frequencies_per_knob(self):
        # Each knob alone, over 10 000 messages: within ~4 sigma.
        for name, fate in (
            ("drop", DROP), ("delay", DELAY), ("duplicate", DUPLICATE)
        ):
            schedule = FaultSchedule(7, FaultSpec(**{name: 0.3}), 16)
            fates = [
                got
                for round_no in range(40)
                for got, _ in round_fates(schedule, round_no, 250)
            ]
            assert 0.28 < fates.count(fate) / len(fates) < 0.32, name
            assert set(fates) == {fate, DELIVER}


class TestMessageKeys:
    """pack(src, dst, copy) must never alias two messages onto one fate."""

    def test_distinct_messages_distinct_hashes(self):
        schedule = FaultSchedule(42, FaultSpec(drop=0.5), 5)
        hashes = {
            schedule.message_hash(3, src, dst, copy)
            for src in range(5)
            for dst in range(5)
            for copy in range(9)
        }
        assert len(hashes) == 5 * 5 * 9

    def test_too_many_pids_for_the_key_rejected(self):
        FaultSchedule(0, FaultSpec(drop=0.1), 1 << 24)
        with pytest.raises(ValueError, match="copy index"):
            FaultSchedule(0, FaultSpec(drop=0.1), (1 << 24) + 1)

    def test_copy_limit_leaves_the_pid_fields(self):
        schedule = FaultSchedule(0, FaultSpec(drop=0.1), 64)
        assert schedule.copy_limit == 1 << (64 - 2 * 6)


class TestPartitionStorms:
    SPEC = FaultSpec(partition_period=8, partition_width=3)

    def test_storm_phase_geometry(self):
        schedule = FaultSchedule(42, self.SPEC, 16)
        for round_no in range(32):
            severed = schedule.severed(round_no)
            if round_no % 8 < 3:
                assert severed is not None
            else:
                assert severed is None

    def test_cut_is_a_bisection(self):
        schedule = FaultSchedule(42, self.SPEC, 16)
        cut = schedule.severed(0)
        assert len(cut) == 8
        assert cut < set(range(16))

    def test_cut_stable_within_a_window(self):
        schedule = FaultSchedule(42, self.SPEC, 16)
        assert schedule.severed(0) == schedule.severed(1) == schedule.severed(2)

    def test_same_seed_same_cuts(self):
        a = FaultSchedule(42, self.SPEC, 16)
        b = FaultSchedule(42, self.SPEC, 16)
        for round_no in range(32):
            assert a.severed(round_no) == b.severed(round_no)

    def test_windows_independent_of_query_order(self):
        fresh = FaultSchedule(42, self.SPEC, 16)
        warmed = FaultSchedule(42, self.SPEC, 16)
        for round_no in range(16):
            warmed.severed(round_no)
        assert fresh.severed(17) == warmed.severed(17)

    def test_no_partitions_when_disabled(self):
        schedule = FaultSchedule(42, FaultSpec(drop=0.5), 16)
        assert all(schedule.severed(r) is None for r in range(16))


class TestSeveredBoundaries:
    """severed() at the exact edges of storm windows and active ranges."""

    def test_storm_window_boundary_rounds(self):
        # period=8, width=3: storm covers phases 0,1,2 of every window.
        schedule = FaultSchedule(42, FaultSpec(partition_period=8, partition_width=3), 16)
        for window_start in (0, 8, 16, 24):
            assert schedule.severed(window_start) is not None  # first round
            assert schedule.severed(window_start + 2) is not None  # last storm round
            assert schedule.severed(window_start + 3) is None  # first calm round
            assert schedule.severed(window_start + 7) is None  # last calm round

    def test_width_one_severs_exactly_one_round_per_window(self):
        schedule = FaultSchedule(7, FaultSpec(partition_period=4, partition_width=1), 16)
        severed_rounds = [r for r in range(40) if schedule.severed(r) is not None]
        assert severed_rounds == [0, 4, 8, 12, 16, 20, 24, 28, 32, 36]

    def test_start_round_edge(self):
        spec = FaultSpec(partition_period=4, partition_width=2, start_round=8)
        schedule = FaultSchedule(42, spec, 16)
        # Round 7 is outside the active window even though phase 3 of
        # window 1 would not sever anyway; round 8 (window 2, phase 0) does.
        assert schedule.severed(7) is None
        assert schedule.severed(8) is not None
        assert schedule.severed(9) is not None
        assert schedule.severed(10) is None

    def test_stop_round_edge(self):
        spec = FaultSpec(partition_period=4, partition_width=2, stop_round=8)
        schedule = FaultSchedule(42, spec, 16)
        assert schedule.severed(4) is not None
        assert schedule.severed(5) is not None
        assert schedule.severed(7) is None  # phase 3: calm
        assert schedule.severed(8) is None  # stop_round is exclusive
        assert schedule.severed(9) is None

    def test_consecutive_windows_draw_distinct_cuts(self):
        # Not a fairness claim — just that window k's cut comes from its
        # own stream: over many windows at least two cuts differ.
        schedule = FaultSchedule(42, FaultSpec(partition_period=2, partition_width=1), 16)
        cuts = {schedule.severed(window * 2) for window in range(16)}
        assert len(cuts) > 1


class TestMessageFatePurity:
    """fate is a pure function of (seed, round, src, dst, copy) — the
    property that makes chaos runs --jobs- and shard-invariant."""

    SPEC = FaultSpec(drop=0.3, delay=0.3, max_delay=4, duplicate=0.1)

    def test_same_coordinates_same_fate(self):
        schedule = FaultSchedule(42, self.SPEC, 16)
        for round_no in range(8):
            for copy in range(3):
                first = schedule.fate(round_no, 1, 2, copy)
                assert schedule.fate(round_no, 1, 2, copy) == first

    def test_independent_instances_agree(self):
        # Two schedules (e.g. two exec-pool workers, or two shard
        # workers) reach identical fates without sharing any state.
        a = FaultSchedule(42, self.SPEC, 16)
        b = FaultSchedule(42, self.SPEC, 16)
        fates_a = [
            a.fate(r, s, d, c)
            for r in range(6)
            for s in range(4)
            for d in range(4)
            for c in range(2)
        ]
        fates_b = [
            b.fate(r, s, d, c)
            for r in range(6)
            for s in range(4)
            for d in range(4)
            for c in range(2)
        ]
        assert fates_a == fates_b

    def test_query_order_is_irrelevant(self):
        # Shards enumerate only their own destinations, in their own
        # order; fates must not depend on the enumeration order.
        forward = FaultSchedule(42, self.SPEC, 16)
        backward = FaultSchedule(42, self.SPEC, 16)
        coords = [
            (r, s, d, c)
            for r in range(4)
            for s in range(3)
            for d in range(3)
            for c in range(2)
        ]
        want = {xyz: forward.fate(*xyz) for xyz in coords}
        got = {xyz: backward.fate(*xyz) for xyz in reversed(coords)}
        assert got == want

    def test_copy_index_distinguishes_duplicates(self):
        schedule = FaultSchedule(42, FaultSpec(drop=0.5), 64)
        fates = {
            copy: schedule.fate(3, 1, 2, copy) for copy in range(64)
        }
        assert len(set(fates.values())) > 1  # copies draw distinct streams

    def test_inactive_rounds_deliver_without_drawing(self):
        spec = FaultSpec(drop=1.0, start_round=10)
        schedule = FaultSchedule(42, spec, 16)
        assert schedule.fate(9, 0, 1, 0) == (DELIVER, 0)
        assert schedule.fate(10, 0, 1, 0) == (DROP, 0)

"""Tests for repro.sim.clock: round clock and block/iteration arithmetic."""

import hashlib
import json
import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import (
    ACTIVATE_GD,
    ACTIVATE_PROXY,
    GD_CENSUS,
    GD_SEND,
    HAND_UP,
    ITERATION_START,
    PROXY_ACK,
    PROXY_REQUEST,
    PROXY_SHARE,
    BlockSchedule,
    RoundClock,
)


class TestRoundClock:
    def test_starts_at_zero(self):
        assert RoundClock().round == 0

    def test_custom_start(self):
        assert RoundClock(10).round == 10

    def test_advance_increments(self):
        clock = RoundClock()
        assert clock.advance() == 1
        assert clock.round == 1

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            RoundClock(-1)


class TestBlockScheduleBasics:
    def test_block_len_is_quarter_deadline(self):
        assert BlockSchedule(64).block_len == 16
        assert BlockSchedule(256).block_len == 64

    def test_iteration_len_is_sqrt_plus_two(self):
        assert BlockSchedule(64).iteration_len == 10
        assert BlockSchedule(256).iteration_len == 18

    def test_iterations_per_block(self):
        assert BlockSchedule(64).iterations_per_block == 1
        assert BlockSchedule(256).iterations_per_block == 3

    def test_lemma6_iteration_count(self):
        """Lemma 6: at least sqrt(dline)/8 iterations per block."""
        for exponent in range(6, 13):
            dline = 2 ** exponent
            schedule = BlockSchedule(dline)
            assert schedule.iterations_per_block >= math.isqrt(dline) / 8

    def test_tiny_deadline_rejected(self):
        with pytest.raises(ValueError):
            BlockSchedule(2)

    def test_gossip_deadline_is_sqrt(self):
        assert BlockSchedule(64).gossip_deadline == 8

    def test_allgossip_deadline_fits_block(self):
        schedule = BlockSchedule(64)
        assert schedule.allgossip_deadline == schedule.block_len - 1


class TestBlockPositions:
    def test_block_of(self):
        schedule = BlockSchedule(64)  # blocks of 16
        assert schedule.block_of(0) == 0
        assert schedule.block_of(15) == 0
        assert schedule.block_of(16) == 1

    def test_block_start_end(self):
        schedule = BlockSchedule(64)
        assert schedule.block_start(2) == 32
        assert schedule.stages(47) & HAND_UP
        assert schedule.block_of(48) == 3

    def test_is_block_start(self):
        schedule = BlockSchedule(64)
        assert schedule.stages(32) & ACTIVATE_PROXY
        assert not schedule.stages(33) & ACTIVATE_PROXY

    def test_is_block_last_round(self):
        schedule = BlockSchedule(64)
        assert schedule.stages(47) & HAND_UP
        assert not schedule.stages(46) & HAND_UP

    def test_iteration_of_within_block(self):
        schedule = BlockSchedule(256)  # block 64, iter 18 -> 3 iterations
        assert schedule.iteration_of(0) == 0
        assert schedule.iteration_of(17) == 0
        assert schedule.iteration_of(18) == 1
        assert schedule.iteration_of(53) == 2

    def test_slack_tail_has_no_iteration(self):
        schedule = BlockSchedule(256)
        # 3 iterations cover rounds 0..53 of the block; 54..63 are slack.
        assert schedule.iteration_of(54) == -1
        assert schedule.round_in_iteration(54) == -1

    def test_round_in_iteration(self):
        schedule = BlockSchedule(64)
        assert schedule.round_in_iteration(0) == 0
        assert schedule.round_in_iteration(1) == 1
        assert schedule.round_in_iteration(9) == 9

    def test_is_iteration_last_round(self):
        schedule = BlockSchedule(64)  # iteration length 10
        assert schedule.stages(9) & PROXY_ACK
        assert not schedule.stages(8) & PROXY_ACK


# Every stage flag by name, for the pinned tables below.
STAGES = {
    "activate_proxy": ACTIVATE_PROXY,
    "activate_gd": ACTIVATE_GD,
    "iteration_start": ITERATION_START,
    "proxy_request": PROXY_REQUEST,
    "proxy_share": PROXY_SHARE,
    "gd_send": GD_SEND,
    "gd_census": GD_CENSUS,
    "proxy_ack": PROXY_ACK,
    "hand_up": HAND_UP,
}


def stage_table(dline):
    """Every named round over the first four blocks, and the uptime gates."""
    schedule = BlockSchedule(dline)
    table = {
        name: [
            r for r in range(4 * schedule.block_len) if schedule.stages(r) & flag
        ]
        for name, flag in STAGES.items()
    }
    table["uptime"] = [schedule.proxy.uptime, schedule.gd.uptime]
    return table


class TestStageTable:
    """The stage rounds are pinned to the positions the services used
    before they were named: Proxy activates at the block start, requests
    at iteration position 0, shares at 1 and acks at the iteration's last
    round; GD activates at block start + 1, sends at position 1 and
    injects its census at 2; both hand up at the block's last round."""

    def test_dline_64_table(self):
        assert stage_table(64) == {
            "activate_proxy": [0, 16, 32, 48],
            "activate_gd": [1, 17, 33, 49],
            "iteration_start": [0, 16, 32, 48],
            "proxy_request": [0, 16, 32, 48],
            "proxy_share": [1, 17, 33, 49],
            "gd_send": [1, 17, 33, 49],
            "gd_census": [2, 18, 34, 50],
            "proxy_ack": [9, 25, 41, 57],
            "hand_up": [15, 31, 47, 63],
            "uptime": [16, 42],
        }

    @pytest.mark.parametrize(
        "dline, digest, uptime",
        [
            (64, "58ffd368749a0a20", [16, 42]),
            (128, "ed58f417e6e5fd7d", [32, 85]),
            (256, "9d2d57290c14952e", [64, 170]),
            (512, "d251013f2a991a97", [128, 341]),
            (1024, "7a1373f76661ff2a", [256, 682]),
        ],
    )
    def test_table_digest(self, dline, digest, uptime):
        # sha256 of the sorted-key JSON of stage_table(dline), computed
        # from the position arithmetic the services used before.
        table = stage_table(dline)
        assert table["uptime"] == uptime
        blob = json.dumps(table, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == digest

    def test_activation_round(self):
        schedule = BlockSchedule(64)
        assert schedule.activation_round(schedule.proxy, 20) == 16
        assert schedule.activation_round(schedule.gd, 20) == 17
        assert schedule.activation_round(schedule.gd, 16) == 17

    def test_proxy_retransmits_at_powers_of_two_short_of_the_ack(self):
        schedule = BlockSchedule(256)  # iteration length 18, 3 per block
        by_round = {
            r: schedule.proxy_retransmit(r)
            for r in range(schedule.block_len)
            if schedule.proxy_retransmit(r)
        }
        assert by_round == {2: 1, 4: 2, 8: 3, 16: 4, 20: 1, 22: 2, 26: 3, 34: 4,
                            38: 1, 40: 2, 44: 3, 52: 4}


@given(
    exponent=st.integers(min_value=6, max_value=14),
    round_no=st.integers(min_value=0, max_value=100_000),
)
def test_positions_are_consistent(exponent, round_no):
    """Property: positions derived from a round always agree."""
    schedule = BlockSchedule(2 ** exponent)
    block = schedule.block_of(round_no)
    assert schedule.block_start(block) <= round_no < schedule.block_start(block + 1)
    offset = round_no - schedule.block_start(block)
    stages = schedule.stages(round_no)
    assert bool(stages & ACTIVATE_PROXY) == (offset == 0)
    assert bool(stages & ACTIVATE_GD) == (offset == 1)
    assert bool(stages & HAND_UP) == (offset == schedule.block_len - 1)
    iteration = schedule.iteration_of(round_no)
    position = schedule.round_in_iteration(round_no)
    if iteration >= 0:
        assert 0 <= position < schedule.iteration_len
        assert offset == iteration * schedule.iteration_len + position
    else:
        assert position == -1
        assert offset >= schedule.iterations_per_block * schedule.iteration_len
    assert bool(stages & (ITERATION_START | PROXY_REQUEST)) == (position == 0)
    assert bool(stages & (PROXY_SHARE | GD_SEND)) == (position == 1)
    assert bool(stages & GD_CENSUS) == (position == 2)
    assert bool(stages & PROXY_ACK) == (position == schedule.iteration_len - 1)

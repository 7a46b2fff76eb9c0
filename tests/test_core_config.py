"""Tests for repro.core.config: protocol parameters."""

import dataclasses
import math

import pytest

from repro.core.config import (
    HARDENED,
    PAPER_EXACT,
    CongosParams,
    default_deadline_cap,
)
from repro.sim.clock import BlockSchedule


class TestValidation:
    def test_defaults_valid(self):
        CongosParams()

    def test_tau_bounds(self):
        with pytest.raises(ValueError):
            CongosParams(tau=0)

    def test_bad_schedule(self):
        with pytest.raises(ValueError):
            CongosParams(gossip_schedule="psychic")

    def test_bad_pool(self):
        with pytest.raises(ValueError):
            CongosParams(gd_target_pool="everyone")

    def test_bad_fanout_scale(self):
        with pytest.raises(ValueError):
            CongosParams(fanout_scale=0)

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            CongosParams(deadline_cap=2)


class TestDerived:
    def test_num_groups(self):
        assert CongosParams(tau=1).num_groups == 2
        assert CongosParams(tau=3).num_groups == 4

    def test_deadline_cap_default_formula(self):
        assert default_deadline_cap(64) == int(math.log2(64) ** 6)
        params = CongosParams()
        assert params.effective_deadline_cap(64) == default_deadline_cap(64)

    def test_deadline_cap_override(self):
        assert CongosParams(deadline_cap=256).effective_deadline_cap(64) == 256

    def test_uptimes(self):
        # The uptime gates are the schedule's, not a parameter's.
        schedule = BlockSchedule(64)
        assert schedule.proxy.uptime == 16
        assert schedule.gd.uptime == 42


class TestServiceFanout:
    def test_divided_by_collaborators(self):
        params = CongosParams(min_fanout=1)
        few = params.service_fanout(64, 256, collaborators=2)
        many = params.service_fanout(64, 256, collaborators=32)
        assert few > many

    def test_monotone_in_deadline(self):
        """Shorter deadlines demand more messages (the n^{C/sqrt(d)} term)."""
        params = CongosParams(min_fanout=1)
        short = params.service_fanout(64, 64, collaborators=8)
        long = params.service_fanout(64, 1024, collaborators=8)
        assert short >= long

    def test_minimum_enforced(self):
        params = CongosParams(min_fanout=3)
        assert params.service_fanout(8, 4096, collaborators=1000) >= 3

    def test_zero_collaborators_treated_as_one(self):
        params = CongosParams()
        assert params.service_fanout(16, 64, 0) == params.service_fanout(16, 64, 1)

    def test_invalid_dline(self):
        with pytest.raises(ValueError):
            CongosParams().service_fanout(16, 0, 1)


class TestCollusionDirect:
    def test_base_algorithm_never_direct(self):
        assert not CongosParams(tau=1).collusion_forces_direct(4)

    def test_huge_tau_forces_direct(self):
        assert CongosParams(tau=16).collusion_forces_direct(16)

    def test_factor_relaxes_threshold(self):
        strict = CongosParams(tau=2, collusion_direct_factor=1.0)
        relaxed = CongosParams(tau=2, collusion_direct_factor=8.0)
        assert strict.collusion_forces_direct(24)
        assert not relaxed.collusion_forces_direct(24)

    def test_paper_defaults_use_literal_constants(self):
        params = CongosParams.preset("paper")
        assert params.fanout_exponent_constant == 48.0
        assert params.collusion_direct_factor == 1.0


class TestPresets:
    def test_paper_defaults_overridable(self):
        params = CongosParams.preset("paper", tau=2)
        assert params.tau == 2
        assert params.fanout_exponent_constant == 48.0

    def test_lean_is_cheaper(self):
        lean = CongosParams.preset("lean")
        default = CongosParams()
        assert lean.service_fanout(64, 64, 8) <= default.service_fanout(64, 64, 8)

    def test_with_tau(self):
        assert CongosParams().with_tau(4).tau == 4

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CongosParams().tau = 3  # type: ignore[misc]


class TestPresetRegistry:
    def test_registered_names(self):
        assert set(CongosParams.preset_names()) == {
            "default",
            "paper",
            "lean",
            "hardened",
        }

    def test_default_preset_is_the_constructor(self):
        assert CongosParams.preset("default") == CongosParams()

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(KeyError, match="hardened"):
            CongosParams.preset("turbo")

    def test_aliases_match_registry(self):
        # "hardened" is the switch on default constants; "paper" and
        # "lean" are reached through preset() only.
        assert CongosParams(hardened=True) == CongosParams.preset("hardened")
        assert not hasattr(CongosParams, "paper_defaults")
        assert not hasattr(CongosParams, "lean")

    def test_overrides_win(self):
        params = CongosParams.preset("hardened", fanout_scale=0.25, tau=2)
        assert params.fanout_scale == 0.25
        assert params.tau == 2
        assert params.hardened  # untouched preset field

    def test_hardened_includes_direct_send_knobs(self):
        degradation = CongosParams.preset("hardened").degradation
        assert degradation is HARDENED
        assert degradation.direct_send_retries == 3
        assert degradation.direct_send_ack
        assert degradation.direct_send_copies == 2
        assert degradation.proxy_retransmit == 2  # the pipeline settings too

    def test_default_is_not_reliable(self):
        assert not CongosParams().hardened
        assert CongosParams().degradation is PAPER_EXACT


# The fields of CongosParams, in order.  A change here is a change to the
# protocol's option surface: make it on purpose.
FIELDS = (
    "tau",
    "fanout_exponent_constant",
    "fanout_scale",
    "min_fanout",
    "gossip_fanout_scale",
    "gossip_schedule",
    "direct_send_threshold",
    "deadline_cap",
    "gd_target_pool",
    "collusion_direct_factor",
    "fallback_scope",
    "hardened",
)


def test_field_surface_is_pinned():
    assert tuple(f.name for f in dataclasses.fields(CongosParams)) == FIELDS

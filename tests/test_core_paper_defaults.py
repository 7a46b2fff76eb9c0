"""Running with the paper's literal constants.

The analysis constants (fanout exponent 48, collusion threshold factor 1)
make the fanout formula saturate every pool at simulation scale — the
protocol degrades to "everyone tells everyone relevant" but must stay
*correct*: confidentiality and QoD are parameter-independent claims.
"""

import pytest

from repro.core.config import CongosParams
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import steady_scenario


class TestPaperDefaults:
    def test_correctness_survives_saturated_fanouts(self):
        params = CongosParams.preset("paper")
        result = run_congos_scenario(
            steady_scenario(
                n=8, rounds=260, seed=0, deadline=64, rate=1, period=16, params=params
            )
        )
        assert result.qod.satisfied
        assert result.confidentiality.is_clean()

    def test_fanout_formula_saturates(self):
        params = CongosParams.preset("paper")
        # At n=8, dline=64: n^(1+48/8) = 8^7 — astronomically above any
        # pool size, so every sampled pool is taken whole.
        assert params.service_fanout(8, 64, collaborators=4) > 10 ** 5

    def test_collusion_mode_forces_direct_at_small_n(self):
        params = CongosParams.preset("paper", tau=2)
        assert params.collusion_forces_direct(16)
        result = run_congos_scenario(
            steady_scenario(
                n=8, rounds=200, seed=0, deadline=64, rate=1, period=16, params=params
            )
        )
        assert result.qod.satisfied
        assert set(result.qod.path_counts()) <= {"direct", "local"}

    def test_deadline_cap_is_log_sixth_power(self):
        params = CongosParams.preset("paper")
        assert params.effective_deadline_cap(64) == int(6.0 ** 6)

    def test_messages_explode_relative_to_lean(self):
        """The cost of the analysis constants, made visible."""
        paper = run_congos_scenario(
            steady_scenario(
                n=8,
                rounds=200,
                seed=0,
                deadline=64,
                rate=1,
                period=32,
                params=CongosParams.preset("paper"),
            )
        )
        lean = run_congos_scenario(
            steady_scenario(
                n=8,
                rounds=200,
                seed=0,
                deadline=64,
                rate=1,
                period=32,
                params=CongosParams.preset("lean"),
            )
        )
        assert paper.stats.total > lean.stats.total

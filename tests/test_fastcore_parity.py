"""The statistical-parity gate: ks_distance units plus one live cell.

The KS helper is pure python (tested without numpy); the live
object-vs-array comparison needs the ``repro[fast]`` extra and skips
without it.  CI's fast-smoke job runs the full four-cell gate; here one
small cell keeps tier-1 honest without the wall-clock cost.
"""

import pytest

from repro.fastcore.parity import (
    ParityGate,
    default_parity_cells,
    ks_distance,
)


class TestKsDistance:
    def test_identical_samples_zero(self):
        assert ks_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_identical_with_ties_zero(self):
        # Regression guard: tied values must advance both ECDFs together,
        # otherwise identical histograms show phantom distance.
        a = [21] * 44 + [25] * 48 + [29] * 48 + [33] * 48
        assert ks_distance(a, list(a)) == 0.0

    def test_disjoint_supports_one(self):
        assert ks_distance([1, 2], [3, 4]) == 1.0

    def test_known_half(self):
        assert ks_distance([1, 1, 1, 2], [1, 2, 2, 2]) == pytest.approx(0.5)

    def test_symmetry(self):
        a = [1, 1, 2, 5, 9]
        b = [1, 3, 3, 4]
        assert ks_distance(a, b) == ks_distance(b, a)

    def test_empty_handling(self):
        assert ks_distance([], []) == 0.0
        assert ks_distance([1], []) == 1.0
        assert ks_distance([], [1]) == 1.0

    def test_unsorted_input_ok(self):
        assert ks_distance([3, 1, 2], [2, 3, 1]) == 0.0


class TestDefaultCells:
    def test_pinned_cells_shape(self):
        cells = default_parity_cells(seeds=(0, 1))
        names = [cell.name for cell in cells]
        assert "e6-parity-n16-s0" in names
        assert "e11-parity-s1" in names
        assert len(cells) == 8
        # All cells run fault-free on the default backend, in array scope.
        assert all(cell.chaos is None and cell.backend == "inproc" for cell in cells)


class TestGateLive:
    def test_smallest_cell_passes(self):
        pytest.importorskip("numpy", minversion="2.0")
        gate = ParityGate()
        report = gate.check(default_parity_cells(seeds=(0,))[0])
        assert report.passed, report.failures
        assert report.delivered_pairs_equal
        assert report.qod_clean and report.confidentiality_clean
        assert report.latency_ks <= gate.max_latency_ks
        body = report.to_dict()
        assert body["passed"] is True
        assert body["failures"] == []
        assert set(body["service_rel_err"])  # per-service errors recorded

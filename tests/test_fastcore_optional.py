"""The optional-dependency contract of the ``repro[fast]`` extra.

Tier-1 (and every core import surface) must work without numpy; only
actually selecting ``engine="array"`` may require it — and when it does,
the error must name the extra to install.  These tests simulate a
numpy-less environment (``sys.modules["numpy"] = None`` makes the import
fail) even on machines where numpy is installed.
"""

import dataclasses
import subprocess
import sys

import pytest

import repro
from repro.core.config import CongosParams
from repro.fastcore import numpy_available, require_numpy
from repro.fastcore.runner import _check_scope
from repro.sim.engine import UnsupportedScenario
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import steady_scenario

_SRC = repro.__file__.rsplit("repro", 1)[0].rstrip("/\\")


class TestWithoutNumpy:
    def test_availability_probe(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert not numpy_available()

    def test_require_numpy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ImportError, match=r"pip install repro\[fast\]"):
            require_numpy()

    def test_array_engine_raises_import_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        scenario = dataclasses.replace(
            steady_scenario(n=8, rounds=32, seed=0, deadline=64),
            engine="array",
        )
        with pytest.raises(ImportError, match=r"repro\[fast\]"):
            run_congos_scenario(scenario)

    def test_object_engine_unaffected(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        result = run_congos_scenario(
            steady_scenario(n=8, rounds=96, seed=0, deadline=64)
        )
        assert result.qod.satisfied

    def test_core_surfaces_import_cleanly(self):
        # Fresh interpreter with numpy import-blocked: the api, CLI, perf
        # registry and exec layers must all come up, and the fastcore
        # microbench cases must simply be absent (registry intact).
        code = (
            "import sys; sys.modules['numpy'] = None; "
            "sys.path.insert(0, {src!r}); "
            "import repro.api, repro.load.soak; "
            "from repro.harness.cli import build_parser; build_parser(); "
            "from repro.perf.cases import case_keys; keys = case_keys(); "
            "assert len(keys) >= 8, keys; "
            "assert not any(k.startswith('fastcore') for k in keys), keys; "
            "from repro.exec.tasks import RunSpec; "
            "RunSpec.make('steady', seed=0, n=8).key; "
            "print('ok')"
        ).format(src=_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_numpy_gated_suites_would_skip(self, monkeypatch):
        # The fastcore test modules gate on importorskip("numpy",
        # minversion="2.0"): with numpy blocked, collection must skip
        # rather than error.
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(pytest.skip.Exception):
            pytest.importorskip("numpy", minversion="2.0")

    def test_hardened_is_one_refusal(self, monkeypatch):
        # The scope check is numpy-free: the whole graceful-degradation
        # layer is refused as one reason, named after its switch.
        monkeypatch.setitem(sys.modules, "numpy", None)
        scenario = dataclasses.replace(
            steady_scenario(
                n=8, rounds=32, seed=0, deadline=64,
                params=CongosParams(hardened=True),
            ),
            engine="array",
        )
        with pytest.raises(UnsupportedScenario) as info:
            _check_scope(scenario, telemetry=None)
        assert str(info.value) == (
            "engine='array' does not support hardened; use the object engine"
        )


class TestWithOldNumpy:
    """numpy 1.x imports but lacks ``np.bitwise_count``: it must count as
    missing, not pass the gate and crash inside the first popcount."""

    @pytest.fixture
    def numpy_1(self, monkeypatch):
        np = pytest.importorskip("numpy")
        monkeypatch.setattr(np, "__version__", "1.26.4")

    def test_availability_probe(self, numpy_1):
        assert not numpy_available()

    def test_require_numpy_names_the_found_version(self, numpy_1):
        with pytest.raises(ImportError, match=r"found numpy 1\.26\.4") as info:
            require_numpy()
        assert "pip install repro[fast]" in str(info.value)
        assert ">= 2.0" in str(info.value)

    def test_array_engine_refused_before_it_runs(self, numpy_1):
        scenario = dataclasses.replace(
            steady_scenario(n=8, rounds=32, seed=0, deadline=64),
            engine="array",
        )
        with pytest.raises(ImportError, match=r"found numpy 1\.26\.4"):
            run_congos_scenario(scenario)

    def test_numpy_gated_suites_would_skip(self, numpy_1):
        with pytest.raises(pytest.skip.Exception):
            pytest.importorskip("numpy", minversion="2.0")


class TestWithNumpy:
    def test_require_numpy_returns_module(self):
        np = pytest.importorskip("numpy", minversion="2.0")
        assert require_numpy() is np
        assert numpy_available()

"""A run is a value: its state after round t decides the rest of it.

The paper's service is continuous and a restarted process rejoins from
the global clock alone (Section 2), so a run's state at round t plus the
rounds after t must fix its outcome.  These tests hold the code to that:
an in-process run — object or array engine — pickled between two rounds
as ``(setup, engine)`` and loaded again finishes with the uninterrupted
run's ``RunRecord.digest()``.  That needs protocol state to be plain
data: no closures, no ``id()``-keyed maps, no identity tests on values
that pickling copies, and node factories that are ``partial`` objects,
so a process restarted after the cut reports to the *loaded* delivery
auditor.  The sharded backend keeps its state in worker processes and is
out of scope.
"""

from __future__ import annotations

import functools
import os
import pickle
import random
import subprocess
import sys

import pytest

import repro
from repro.exec.results import RunRecord
from repro.fastcore import numpy_available
from repro.harness.runner import assemble, engine_for
from repro.harness.scenarios import BUILDERS
from repro.sim.engine import UnsupportedScenario

N = 16
ROUNDS = 256
SEED = 1


def scenario(name: str, engine: str):
    """The cell's scenario: deadline 64 where the builder takes one, so
    the Proxy/GD pipeline runs at n = 16 (a shorter deadline goes
    direct); ``direct`` keeps its own short default, ``theorem1`` its
    ``dmax``."""
    kwargs = dict(n=N, rounds=ROUNDS, seed=SEED)
    if name == "collusion":
        kwargs["tau"] = 2
    if name not in ("direct", "theorem1"):
        kwargs["deadline"] = 64
    built = BUILDERS[name](**kwargs)
    built.engine = engine
    return built


def _cells():
    cells = []
    for name in BUILDERS:
        for engine in ("object", "array") if numpy_available() else ("object",):
            try:
                assemble(scenario(name, engine))
            except UnsupportedScenario:
                continue
            cells.append((name, engine))
    return cells


CELLS = _cells()


def finish(setup, engine):
    """Run ``engine`` to the scenario's end and return its result."""
    engine.run(setup.scenario.rounds - engine.rounds_executed)
    return setup.result(engine)


def resumed(name: str, engine: str, cut: int):
    """Run to ``cut``, pickle ``(setup, engine)``, load it and finish."""
    setup = assemble(scenario(name, engine))
    running = engine_for(setup)
    running.run(cut)
    blob = pickle.dumps((setup, running), protocol=5)
    del setup, running
    return finish(*pickle.loads(blob))


@functools.lru_cache(maxsize=None)
def reference(name: str, engine: str):
    """The uninterrupted run's digest and confidentiality summary."""
    setup = assemble(scenario(name, engine))
    result = finish(setup, engine_for(setup))
    return RunRecord.from_result(result).digest(), result.confidentiality.summary()


def cut_round(name: str, engine: str) -> int:
    """The cell's checkpoint round, drawn once from a fixed seed (a str
    seed hashes with sha512, so the draw ignores PYTHONHASHSEED)."""
    return random.Random("{}/{}".format(name, engine)).randrange(1, ROUNDS)


def test_every_builder_has_an_object_cell():
    assert {name for name, engine in CELLS if engine == "object"} == set(BUILDERS)


@pytest.mark.parametrize("name,engine", CELLS, ids=["-".join(c) for c in CELLS])
def test_resume_reaches_the_uninterrupted_digest(name, engine):
    result = resumed(name, engine, cut_round(name, engine))
    assert result.qod.outcomes, "the QoD report judged no pair"
    assert RunRecord.from_result(result).digest() == reference(name, engine)[0]


@pytest.mark.parametrize("name,cut", [("churn", 90), ("proxy-killer", 100)])
def test_process_restarted_after_the_cut_reports_to_the_loaded_auditor(name, cut):
    # source-killer's adversary only crashes; these two restart processes.
    result = resumed(name, "object", cut)
    restarts = [e for e in result.engine.event_log.restarts if e.round_no > cut]
    assert restarts, "no restart after the cut"
    assert RunRecord.from_result(result).digest() == reference(name, "object")[0]
    # A node built after the cut delivers into the loaded auditor.
    assert any(
        pid == event.pid and when >= event.round_no
        for (_rid, pid), (when, *_rest) in result.delivery.deliveries.items()
        for event in restarts
    )


@pytest.mark.skipif(not numpy_available(), reason="array engine needs numpy")
def test_array_item_kinds_survive_pickling():
    # A loaded item kind is an equal string, not the module's constant:
    # kinds compared by identity drop fragment borders and deliveries.
    result = resumed("steady", "array", 100)
    digest, summary = reference("steady", "array")
    assert summary["border_messages"] > 0
    assert result.confidentiality.summary() == summary
    assert RunRecord.from_result(result).digest() == digest


_SAVE = """
import pickle, sys
from repro.harness.runner import assemble, engine_for
with open(sys.argv[1], "rb") as src:
    setup = assemble(pickle.load(src))
engine = engine_for(setup)
engine.run(int(sys.argv[2]))
with open(sys.argv[1], "wb") as out:
    pickle.dump((setup, engine), out, protocol=5)
"""

_RESUME = """
import pickle, sys
from repro.exec.results import RunRecord
with open(sys.argv[1], "rb") as src:
    setup, engine = pickle.load(src)
engine.run(setup.scenario.rounds - engine.rounds_executed)
print(RunRecord.from_result(setup.result(engine)).digest())
"""


def _python(code: str, hash_seed: str, *args: str) -> str:
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize(
    "name,engine",
    [("chaos", "object"), pytest.param("open", "array", marks=pytest.mark.skipif(
        not numpy_available(), reason="array engine needs numpy"))],
)
def test_resume_in_another_process_under_another_hash_seed(name, engine, tmp_path):
    # Saved under hash seed 1, finished under 2, judged against this
    # process's run: set order must never reach a digest.
    path = tmp_path / "run.pickle"
    path.write_bytes(pickle.dumps(scenario(name, engine), protocol=5))
    _python(_SAVE, "1", str(path), "100")
    assert _python(_RESUME, "2", str(path)) == reference(name, engine)[0]

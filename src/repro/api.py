"""repro.api — the stable facade over the reproduction.

Examples, tests and downstream notebooks used to import run/sweep/trace
machinery from five submodules (``harness.runner``, ``harness.scenarios``,
``analysis.sweeps``, ``obs.*``, ``core.config``); this module is the one
import that stays put while the internals keep moving:

    from repro.api import CongosParams, run_scenario, sweep, trace

    result = run_scenario("steady", n=16, rounds=400, seed=7)
    print(result.summary())

    hardened = sweep("direct", [{"drop": 0.3}], seeds=(0, 1),
                     n=16, rounds=200, deadline=32,
                     params=CongosParams.preset("hardened"))

Open (service-shaped) workloads get the same one-liner treatment:

    from repro.api import ArrivalSpec, run_open

    result = run_open(ArrivalSpec(process="bursty", rate=4.0),
                      n=64, rounds=300)
    print(result.summary()["load"])

Everything re-exported here is covered by the acceptance tests; anything
not listed in ``__all__`` is an internal that may change between PRs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.analysis.sweeps import CellResult, SweepResult, grid, sweep_congos
from repro.core.config import CongosParams
from repro.gossip.rumor import Rumor, RumorId, make_rumor
from repro.harness.runner import RunResult, Scenario, run_congos_scenario
from repro.harness.scenarios import (
    BUILDERS,
    builder_name,
    get_builder,
    register_builder,
)
from repro.load.admission import AdmissionPolicy
from repro.load.arrivals import ArrivalSpec
from repro.obs.instrument import Telemetry
from repro.obs.sink import JsonlSink
from repro.obs.timeline import RumorTimeline

__all__ = [
    "AdmissionPolicy",
    "ArrivalSpec",
    "BUILDERS",
    "CellResult",
    "CongosParams",
    "Rumor",
    "RumorId",
    "RunResult",
    "Scenario",
    "SweepResult",
    "builder_name",
    "get_builder",
    "grid",
    "make_rumor",
    "presets",
    "register_builder",
    "run_open",
    "run_scenario",
    "sweep",
    "trace",
]


def run_scenario(
    scenario: Union[Scenario, str],
    seed: int = 0,
    observers: Iterable = (),
    telemetry: Optional[Telemetry] = None,
    backend: Optional[str] = None,
    net: Optional[dict] = None,
    engine: Optional[str] = None,
    **kwargs: object,
) -> RunResult:
    """Run one fully audited CONGOS scenario.

    ``scenario`` is either a built :class:`Scenario` or a registry name
    (``"steady"``, ``"chaos"``, ``"direct"``, ``"open"``, ...; see
    :data:`BUILDERS`), in which case ``seed`` and the remaining keyword
    arguments go to the builder.  Returns the :class:`RunResult` with
    both auditors attached.

    ``backend`` overrides the scenario's execution backend (``"inproc"``
    or ``"sharded"``); ``net`` supplies sharded-backend options such as
    ``{"workers": 2, "transport": "tcp"}``.  Both backends produce the
    same audited results.  ``engine`` selects the round kernel:
    ``"object"`` (default) or ``"array"`` (the vectorized
    :mod:`repro.fastcore` kernel; needs ``pip install repro[fast]`` and
    is statistically — not bit — equivalent, see DESIGN.md §11).
    """
    if isinstance(scenario, str):
        scenario = get_builder(scenario)(seed=seed, **kwargs)
    else:
        if kwargs:
            raise TypeError(
                "builder kwargs {} only apply when scenario is a registry "
                "name, not an already-built Scenario".format(sorted(kwargs))
            )
        if seed != 0 and seed != scenario.seed:
            raise TypeError(
                "seed={} only applies when scenario is a registry name, "
                "not an already-built Scenario (built with seed={})".format(
                    seed, scenario.seed
                )
            )
    # The one execution-path override: every caller outside a RunSpec
    # (CLI, ledger, examples) picks backend / net / engine here.
    overrides = {
        name: value
        for name, value in (("backend", backend), ("net", net), ("engine", engine))
        if value is not None
    }
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return run_congos_scenario(
        scenario, observers=observers, telemetry=telemetry
    )


def run_open(
    arrival: Optional[ArrivalSpec] = None,
    admission: Optional[AdmissionPolicy] = None,
    seed: int = 0,
    observers: Iterable = (),
    telemetry: Optional[Telemetry] = None,
    backend: Optional[str] = None,
    net: Optional[dict] = None,
    engine: Optional[str] = None,
    **kwargs: object,
) -> RunResult:
    """Run one open-workload (service-model) scenario, fully audited.

    ``arrival`` describes the offered traffic (:class:`ArrivalSpec`;
    ``None`` means the builder's default Poisson stream) and
    ``admission`` the load-leveling policy (:class:`AdmissionPolicy`;
    ``None`` means bounded defaults with the core's injection budget).
    Remaining keyword arguments (``n``, ``rounds``, ``preset``, ...) go
    to the ``"open"`` builder; spelling a field both ways — in a spec
    object *and* as a builder kwarg — is rejected rather than silently
    resolved.  The returned result carries the SLO section in
    ``result.summary()["load"]``.
    """
    expanded: Dict[str, object] = {}
    if arrival is not None:
        spec_fields = arrival.to_dict()
        # ``deadline`` is builder shorthand for a one-deadline mix; the
        # spec always speaks ``deadlines``.
        expanded.update(spec_fields)
    if admission is not None:
        expanded.update(admission.to_dict())
    clash = sorted(set(expanded) & set(kwargs))
    if clash:
        raise TypeError(
            "kwargs {} conflict with the arrival/admission specs; set each "
            "knob in exactly one place".format(clash)
        )
    expanded.update(kwargs)
    return run_scenario(
        "open",
        seed=seed,
        observers=observers,
        telemetry=telemetry,
        backend=backend,
        net=net,
        engine=engine,
        **expanded,
    )


def presets() -> Dict[str, str]:
    """Registered :meth:`CongosParams.preset` names with one-line
    descriptions — the discovery surface, so callers never import
    ``repro.core.config`` just to learn the names.

        >>> sorted(presets())
        ['default', 'hardened', 'lean', 'paper']
    """
    return CongosParams.preset_descriptions()


def sweep(
    scenario: Union[str, object],
    cells: Iterable,
    seeds=(0,),
    jobs: int = 1,
    backend: Optional[str] = None,
    net: Optional[dict] = None,
    **fixed: object,
) -> SweepResult:
    """Sweep a scenario builder over a cell grid on the exec pool.

    Thin alias for :func:`repro.analysis.sweeps.sweep_congos`; build the
    ``cells`` with :func:`grid`.  Results are bit-identical at any
    ``jobs`` setting.

    ``backend``/``net`` mirror :func:`run_scenario`'s overrides (the
    facade is symmetric): ``backend="sharded"`` runs every cell on the
    multi-process backend with ``net`` options such as
    ``{"workers": 2}``, producing the same audited records.
    """
    if backend is not None:
        fixed["backend"] = backend
    if net is not None:
        fixed["net"] = net
    return sweep_congos(scenario, cells, seeds=seeds, jobs=jobs, **fixed)


def trace(
    scenario: Union[Scenario, str],
    seed: int = 0,
    jsonl: Optional[str] = None,
    **kwargs: object,
) -> Tuple[RunResult, RumorTimeline]:
    """Run a scenario with full rumor-lifecycle telemetry.

    Returns ``(result, timeline)``; the :class:`RumorTimeline` answers
    per-rumor questions (``timeline.replay(rid)``,
    ``timeline.lifecycles()``).  Pass ``jsonl`` to also export every
    event (and the final lifecycles) to a JSONL file for offline tools.

    Keyword arguments pass through to :func:`run_scenario`, including
    its ``backend``/``net`` overrides — ``trace(..., backend="sharded",
    net={"workers": 2})`` traces the multi-process backend with workers'
    events merged into the same (sanitized, leak-safe) stream.
    """
    timeline = RumorTimeline()
    if jsonl is None:
        telemetry = Telemetry()
        telemetry.subscribe(timeline)
        result = run_scenario(
            scenario,
            seed=seed,
            observers=[timeline],
            telemetry=telemetry,
            **kwargs,
        )
    else:
        with JsonlSink(path=jsonl) as sink:
            telemetry = Telemetry(sinks=[sink])
            telemetry.subscribe(timeline)
            result = run_scenario(
                scenario,
                seed=seed,
                observers=[timeline],
                telemetry=telemetry,
                **kwargs,
            )
            timeline.export(sink)
    return result, timeline

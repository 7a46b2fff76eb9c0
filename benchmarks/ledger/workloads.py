"""The six ledger workloads and the one place each is turned into a
public-facade call.

Sizes are fixed (only ``--smoke`` shrinks them); the seed is the only
input a run takes.  ``why`` records what each workload stresses that the
others do not — the reason it exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "get_workload", "JOBS"]

# Pool width of sweep_pool and shard count of sharded_object: the 2-core
# reference box, and never more load generators than cores.
JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "scenario" | "open" | "sweep"
    builder: str
    kwargs: Mapping[str, object]
    smoke: Mapping[str, object]
    engine: Optional[str] = None
    backend: Optional[str] = None
    net: Optional[Mapping[str, object]] = None

    def sized(self, smoke: bool) -> Dict[str, object]:
        kwargs = dict(self.kwargs)
        if smoke:
            kwargs.update(self.smoke)
        return kwargs

    # -- public-facade calls --------------------------------------------

    def _open_call(self, smoke: bool):
        """``(ArrivalSpec, remaining run_open kwargs)`` of an open workload."""
        from repro.api import ArrivalSpec

        kwargs = self.sized(smoke)
        spec = ArrivalSpec(
            process="poisson",
            rate=float(kwargs.pop("rate")),
            deadlines=(int(kwargs.pop("deadline")),),
        )
        return spec, kwargs

    def builder_kwargs(self, smoke: bool) -> Dict[str, object]:
        """Keyword arguments that make ``get_builder(self.builder)`` build
        the very scenario :meth:`run` runs (the traced run needs the
        scenario itself, not just its result)."""
        from repro.api import CongosParams

        if self.kind == "open":
            spec, kwargs = self._open_call(smoke)
            return {**spec.to_dict(), **kwargs}
        return {**self.sized(smoke), "params": CongosParams.preset("lean")}

    def run(self, seed: int, observers: Iterable = (), smoke: bool = False,
            inproc: bool = False):
        """One run through ``repro.api`` (``inproc`` strips the sharded
        backend: the identical spec on one engine, for the digest gate)."""
        from repro import api

        backend = None if inproc else self.backend
        net = None if inproc else (dict(self.net) if self.net else None)
        if self.kind == "open":
            spec, kwargs = self._open_call(smoke)
            return api.run_open(
                spec, seed=seed, observers=observers, engine=self.engine,
                **kwargs,
            )
        return api.run_scenario(
            self.builder, seed=seed, observers=observers, engine=self.engine,
            backend=backend, net=net, **self.builder_kwargs(smoke),
        )

    def sweep(self, seed: int, cache, progress=None, smoke: bool = False,
              rounds: Optional[int] = None):
        """The ``sweep_pool`` facade call; ``rounds`` overrides the task
        length (the set-up probe runs the same sweep at one round)."""
        from repro import api

        kwargs = self.sized(smoke)
        cells = api.grid(n=kwargs.pop("n"), deadline=kwargs.pop("deadline"))
        seeds = tuple(range(seed, seed + int(kwargs.pop("seeds"))))
        if rounds is not None:
            kwargs["rounds"] = rounds
        return api.sweep(
            self.builder, cells, seeds=seeds, jobs=JOBS, cache=cache,
            resume=True, progress=progress,
            params=api.CongosParams.preset("lean"), **kwargs,
        )

    def task_count(self, smoke: bool) -> int:
        kwargs = self.sized(smoke)
        return len(kwargs["n"]) * len(kwargs["deadline"]) * int(kwargs["seeds"])


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="steady_object",
        why="object engine, n=64: per-pid core/gossip objects, Network.route and "
            "the per-message confidentiality auditor do the work; fastcore/net/exec none",
        kind="scenario",
        builder="steady",
        kwargs={"n": 64, "rounds": 240, "deadline": 64, "rate": 1, "period": 4},
        smoke={"n": 16, "rounds": 80, "deadline": 32},
    ),
    Workload(
        name="steady_array",
        why="array engine, few rumors at n=4096: vectorized spread/fanout kernels "
            "and bitsets dominate, per-rumor Python is negligible (the scale axis)",
        kind="scenario",
        builder="steady",
        kwargs={"n": 4096, "rounds": 120, "deadline": 64, "rate": 1, "period": 4},
        smoke={"n": 32, "rounds": 80, "deadline": 32},
        engine="array",
    ),
    Workload(
        name="open_array",
        why="same array engine the other way: Poisson 8/round at n=256, many concurrent "
            "rumors, so per-rumor inject/reassemble/retire loops and load admission dominate",
        kind="open",
        builder="open",
        kwargs={"n": 256, "rounds": 200, "deadline": 64, "rate": 8.0,
                "preset": "lean"},
        smoke={"n": 32, "rounds": 80, "deadline": 32, "rate": 1.0},
        engine="array",
    ),
    Workload(
        name="chaos_object",
        why="object engine with the fault plane on: ChaosFaultPlane admits every message, "
            "hardened retransmit/ack paths and a churn adversary run; route used differently",
        kind="scenario",
        builder="chaos",
        kwargs={"n": 64, "rounds": 240, "deadline": 64, "drop": 0.15,
                "delay": 0.1, "duplicate": 0.02, "churn": 0.01,
                "hardened": True},
        smoke={"n": 16, "rounds": 80, "deadline": 32},
    ),
    Workload(
        name="sharded_object",
        why="sharded backend, 2 tcp workers, n=16: codec, wire bytes, barrier wait and "
            "worker spawn do the work, the protocol ~2%; decides fix-or-cut repro.net",
        kind="scenario",
        builder="steady",
        kwargs={"n": 16, "rounds": 120, "deadline": 64},
        smoke={"n": 8, "rounds": 40, "deadline": 16},
        backend="sharded",
        net={"workers": JOBS, "transport": "tcp"},
    ),
    Workload(
        name="sweep_pool",
        why="16-task sweep at jobs=2 into a fresh ResultCache plus a warm resume: exec "
            "pool, RunSpec pickling and the cache coordinate; cross-seed batching shows here",
        kind="sweep",
        builder="steady",
        kwargs={"n": [32, 48], "deadline": [32, 64], "seeds": 4, "rounds": 160},
        smoke={"n": [16, 24], "deadline": [32], "seeds": 2, "rounds": 80},
    ),
)


def get_workload(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        "unknown workload {!r}; known: {}".format(
            name, ", ".join(w.name for w in WORKLOADS)
        )
    )

"""Picklable run specifications with stable content-hash keys.

A :class:`RunSpec` captures one scenario run as plain data — the *name*
of a registered scenario builder, its keyword arguments, an optional
:class:`~repro.core.config.CongosParams` override set, and the seed —
so it can cross a process boundary and serve as a cache key.  The hash
is computed over a canonical JSON rendering, so two specs describing the
same run always collide (kwarg order, tuple-vs-list spelling and set
ordering do not matter) and the key survives interpreter restarts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Callable, Dict, Mapping, Optional, Union

from repro.core.config import CongosParams

__all__ = ["RunSpec", "execute_spec", "canonical_json"]

# ``(gate field, its default, fields emitted while the gate is off it)``.
# At the default they stay out of the content key, the dict form and the
# scenario override, so a spec keeps the key (cache entries, golden
# digests) it had before the field existed.  ``backend`` ("inproc" |
# "sharded", identical audited results) carries the sharded-net options;
# ``engine`` is the round kernel ("object" | "array").
_OPTIONAL = (
    ("backend", "inproc", ("backend", "net")),
    ("engine", "object", ("engine",)),
)


def _canonical(value: object) -> object:
    """Reduce a kwarg value to a JSON-stable canonical form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): _canonical(val) for key, val in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if is_dataclass(value) and not isinstance(value, type):
        return _canonical(asdict(value))
    raise TypeError(
        "RunSpec kwargs must be JSON-representable, got {!r}".format(type(value))
    )


def canonical_json(payload: object) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunSpec:
    """One run of a registered scenario builder, as data.

    ``builder`` names an entry of the registry in
    :mod:`repro.harness.scenarios`; ``params`` holds the full field dict
    of a :class:`CongosParams` (or ``None`` for the builder's default).
    """

    builder: str
    seed: int
    kwargs: Dict[str, object] = field(default_factory=dict)
    params: Optional[Dict[str, object]] = None
    backend: str = "inproc"
    net: Optional[Dict[str, object]] = None
    engine: str = "object"

    @classmethod
    def make(
        cls,
        builder: Union[str, Callable],
        seed: int,
        params: Union[CongosParams, Mapping, None] = None,
        backend: str = "inproc",
        net: Optional[Mapping[str, object]] = None,
        engine: str = "object",
        **kwargs: object,
    ) -> "RunSpec":
        """Build a spec, resolving builder callables and params objects.

        Builders passed as callables must be registered in
        :data:`repro.harness.scenarios.BUILDERS` so the worker process can
        find them again by name.
        """
        from repro.harness.scenarios import builder_name

        name = builder if isinstance(builder, str) else builder_name(builder)
        if isinstance(params, CongosParams):
            resolved: Optional[Dict[str, object]] = asdict(params)
        elif params is not None:
            resolved = asdict(CongosParams(**dict(params)))
        else:
            resolved = None
        return cls(
            builder=name,
            seed=seed,
            kwargs=dict(kwargs),
            params=resolved,
            backend=backend,
            net=dict(net) if net is not None else None,
            engine=engine,
        )

    def _optional(self) -> Dict[str, object]:
        """The optional fields this spec holds off their defaults."""
        return {
            name: getattr(self, name)
            for gate, default, names in _OPTIONAL
            if getattr(self, gate) != default
            for name in names
        }

    @property
    def key(self) -> str:
        """Stable content hash identifying this run."""
        payload = {
            "builder": self.builder,
            "seed": self.seed,
            "kwargs": self.kwargs,
            "params": self.params,
            **self._optional(),
        }
        digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
        return digest.hexdigest()

    def resolve_params(self) -> Optional[CongosParams]:
        if self.params is None:
            return None
        return CongosParams(**self.params)

    def to_scenario(self):
        """Instantiate the scenario this spec describes (any process)."""
        import dataclasses

        from repro.harness.scenarios import get_builder

        builder = get_builder(self.builder)
        kwargs = dict(self.kwargs)
        params = self.resolve_params()
        if params is not None:
            kwargs["params"] = params
        scenario = builder(seed=self.seed, **kwargs)
        overrides = self._optional()
        return dataclasses.replace(scenario, **overrides) if overrides else scenario

    def to_dict(self) -> Dict[str, object]:
        return {
            "builder": self.builder,
            "seed": self.seed,
            "kwargs": dict(self.kwargs),
            "params": dict(self.params) if self.params is not None else None,
            **self._optional(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunSpec":
        return cls(
            builder=str(data["builder"]),
            seed=int(data["seed"]),  # type: ignore[arg-type]
            kwargs=dict(data.get("kwargs") or {}),
            params=dict(data["params"]) if data.get("params") else None,
            **{
                name: data[name]
                for _, _, names in _OPTIONAL
                for name in names
                if data.get(name) is not None
            },
        )


def execute_spec(spec: RunSpec):
    """Run one spec to completion and return its slim record.

    This is the unit of work shipped to pool workers: the engine and
    auditors live and die inside this call; only the
    :class:`~repro.exec.results.RunRecord` crosses back — stamped with
    the task's wall-clock time and the worker's pid for profiling.
    """
    import os
    import time

    from repro.exec.results import RunRecord
    from repro.harness.runner import run_congos_scenario

    started = time.perf_counter()
    result = run_congos_scenario(spec.to_scenario())
    record = RunRecord.from_result(result, spec_key=spec.key)
    return record.with_profile(
        wall_time=round(time.perf_counter() - started, 6),
        worker_pid=os.getpid(),
    )

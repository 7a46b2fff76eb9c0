"""repro.fastcore — the numpy-backed vectorized round kernel.

The object engine (:mod:`repro.sim.engine` + :mod:`repro.core.congos`)
models every process and every message as a Python object; PR 5 tuned
that model to its ceiling.  This package replaces the per-pid inner loop
with array kernels — packed ``uint64`` bitset group membership, batched
fragment XOR over contiguous payload arrays, array-based fanout sampling
and vectorized expiry sweeps — behind the same run surfaces
(``Scenario`` / ``RunResult`` / ``repro.api``), selected with
``engine="array"``.

Correctness: the path contract of :mod:`repro.harness.parity` (DESIGN.md
§11) — the object engine's deliveries and a clean audit, statistics
within the parity gate's bounds, not rng-stream identity.

numpy rides the ``repro[fast]`` extra; importing :mod:`repro` (and the
whole tier-1 suite) works without it.  Only actually selecting
``engine="array"`` requires the extra.  It needs numpy >= 2.0 (the
bitset popcount is ``np.bitwise_count``); an older numpy counts as
missing.
"""

from __future__ import annotations

__all__ = ["numpy_available", "require_numpy"]

_EXTRA_HINT = "Install the fast-engine extra: pip install repro[fast]"


def require_numpy():
    """Import and return numpy >= 2.0, or raise an ImportError naming the
    extra (and the version found, when numpy is too old)."""
    try:
        import numpy
    except ImportError as exc:
        raise ImportError(
            "engine='array' needs numpy, which is not installed. " + _EXTRA_HINT
        ) from exc
    version = numpy.__version__
    if int(version.split(".", 1)[0]) < 2:
        raise ImportError(
            "engine='array' needs numpy >= 2.0 (np.bitwise_count); found numpy "
            "{}. {}".format(version, _EXTRA_HINT)
        )
    return numpy


def numpy_available() -> bool:
    """True when the ``repro[fast]`` extra's numpy (>= 2.0) is importable."""
    try:
        require_numpy()
    except ImportError:
        return False
    return True

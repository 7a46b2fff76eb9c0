"""repro — a reproduction of "Confidential Gossip" (ICDCS 2011).

The package implements the CONGOS confidential continuous-gossip protocol
of Georgiou, Gilbert and Kowalski, together with the synchronous
crash/restart simulation substrate it runs on, the adversaries of the
paper's model, baselines, auditors and a benchmark harness for every
formal claim.  See DESIGN.md for the system inventory and EXPERIMENTS.md
for the reproduction results.

Quick start::

    from repro import quick_run

    result = quick_run(n=16, rounds=400, seed=7)
    print(result.qod.summary())
    print(result.confidentiality.summary())

For anything richer — named scenario runs, grid sweeps, lifecycle
traces — import from :mod:`repro.api`, the stable facade.
"""

__version__ = "1.0.0"


def quick_run(n: int = 16, rounds: int = 400, seed: int = 0, **scenario_kwargs):
    """Run a small audited CONGOS simulation (see harness.runner)."""
    from repro.harness.runner import run_congos_scenario
    from repro.harness.scenarios import steady_scenario

    scenario = steady_scenario(n=n, rounds=rounds, seed=seed, **scenario_kwargs)
    return run_congos_scenario(scenario)

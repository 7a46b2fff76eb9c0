"""Golden payload digests: the bit-identical contract of the perf work.

Every optimization in the hot-path overhaul (deferred message validation,
incremental alive sets, observer dispatch tables, batched stats, pooled
target selection, the auditor's batch cache, the gossip broadcast-horizon
dict) claims to preserve behavior *exactly* — same rng stream consumption,
same event order, same audit verdicts.  These tests pin the sha256 of the
canonical-JSON run payload for one representative cell per experiment
family (E6/E6b/E9/E11/E15/E16).  The digests were captured at commit
29cc6bd, immediately before the overhaul; any optimization that perturbs
an rng call sequence or event ordering flips a digest and fails here.

If a digest changes because of an *intentional* semantic change, re-pin it
in the same commit and say so in the commit message — never silently.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.sweeps import sweep_congos
from repro.chaos.soak import chaos_cells, soak_payload
from repro.core.config import CongosParams
from repro.exec.tasks import RunSpec, canonical_json, execute_spec


def run_digest(spec: RunSpec) -> str:
    record = execute_spec(spec).without_profile()
    return hashlib.sha256(
        canonical_json(record.to_dict()).encode("utf-8")
    ).hexdigest()


def payload_digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def test_e6_steady_digest():
    spec = RunSpec.make(
        "steady",
        seed=0,
        n=16,
        rounds=3 * 64 + 128,
        deadline=64,
        rate=1,
        period=4,
        params=CongosParams.lean(),
    )
    assert (
        run_digest(spec)
        == "a75ac05eea3608aac65e15b3dd9b684d8e15eaa2a76b209a9ae87ba8182a04ff"
    )


def test_e6b_burst_digest():
    spec = RunSpec.make(
        "scripted-burst",
        seed=0,
        n=32,
        rounds=4 * 64,
        deadline=64,
        sources=8,
        inject_round=2 * 64,
        params=CongosParams.lean(),
        name="e6b-64",
    )
    assert (
        run_digest(spec)
        == "8372526026305ce88e45b7961a62e515e62577d1752d877446dda7325cbb6ebb"
    )


def test_e9_collusion_digest():
    spec = RunSpec.make(
        "collusion",
        seed=1,
        n=16,
        rounds=300,
        deadline=64,
        tau=2,
        params=CongosParams.lean(tau=2),
    )
    assert (
        run_digest(spec)
        == "b81aa935a39fc80b33d7a30452327d89208b232a9a237ffd06d95b3073b955ee"
    )


def test_e11_steady_default_params_digest():
    # Default (non-lean) CongosParams: exercises proxy GD and fallback
    # scheduling paths the lean profile skips.
    spec = RunSpec.make("steady", seed=2, n=16, rounds=300, deadline=64)
    assert (
        run_digest(spec)
        == "c28605ba471d48e7ffde70b79ce59ffd71effe819a3e91e3bef52467bd38649c"
    )


def test_e16_direct_hardened_digest():
    spec = RunSpec.make(
        "direct", seed=0, n=16, rounds=120, deadline=32, drop=0.3, hardened=True
    )
    assert (
        run_digest(spec)
        == "1e404c3a6c2a4d247f6b1a98e81a3f5285d5dd76fa9ec29de330a9ed3469f192"
    )


def test_e15_soak_payload_digest():
    # The whole chaos pipeline (fault schedule, exec pool aggregation,
    # payload serialization) in one digest.  Serial on purpose: the pool
    # guarantees jobs-independence elsewhere (test_exec_pool).
    fixed = {
        "n": 8,
        "rounds": 80,
        "deadline": 64,
        "max_delay": 4,
        "duplicate": 0.02,
        "reorder": 0.0,
        "partition_period": 0,
        "partition_width": 0,
        "churn": 0.0,
        "hardened": False,
    }
    sweep = sweep_congos(
        "chaos",
        chaos_cells([0.0, 0.15], [0.1]),
        seeds=(0, 1),
        jobs=1,
        cache=None,
        **fixed,
    )
    payload = soak_payload(
        sweep,
        {
            "n": 8,
            "rounds": 80,
            "deadline": 64,
            "max_delay": 4,
            "duplicate": 0.02,
            "drop": None,
            "delay": None,
        },
    )
    assert (
        payload_digest(payload)
        == "7630f178fe858fe6dcbc96841988778e28db692f1feef4ece5c3f92be7ce8d79"
    )


# The array engine draws from its own numpy streams, so its digests pin
# the array round loop itself: a speed change there that moves an rng call,
# a message count or a delivery round flips one of these.  The steady cell
# (a few rumors in flight at n=256) was pinned at commit 953e1b1, before the
# dense-mask set algebra; the open cell (more than 63 rumors per
# GroupDistribution block) was re-pinned with the sender-class signature
# fix, which changed who sends what in such blocks — af2218e8... before it.


def test_array_steady_digest():
    pytest.importorskip("numpy")
    spec = RunSpec.make(
        "steady",
        seed=0,
        n=256,
        rounds=192,
        deadline=64,
        rate=1,
        period=4,
        params=CongosParams.lean(),
        engine="array",
    )
    assert (
        run_digest(spec)
        == "1b50e6ec632b654d1bcf928fb3ba7625ceea63b63d3f0ddeedca390964dcfa49"
    )


def test_array_open_digest():
    pytest.importorskip("numpy")
    spec = RunSpec.make(
        "open",
        seed=0,
        n=128,
        rounds=192,
        deadline=64,
        rate=4.0,
        preset="lean",
        engine="array",
    )
    assert (
        run_digest(spec)
        == "8794d98b5a6cfa7dd91c3e123fe7fcd1d74ef3ce7417d1a95f98209dcf997fa0"
    )

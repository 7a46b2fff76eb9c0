"""Tests for the one experiment runner, over every registered experiment.

Each declaration in ``repro.harness.cli.EXPERIMENTS`` goes through the
same CLI path at toy size: artifacts, resume, ``--json``, a deterministic
sidecar, and the same exits.  The flag-surface pin makes "no knob added
or removed" a checked property of the parser rather than a promise.
"""

import argparse
import dataclasses
import json

import pytest

from repro.analysis import sweeps
from repro.audit.failfast import InvariantViolation
from repro.fastcore import numpy_available
from repro.harness import experiment as runner
from repro.harness.cli import EXPERIMENTS, PROFILE_SWEEP, build_parser, main
from repro.perf.scaling import ENGINE_SCALING, SHARDED_SCALING

# Timing and cache accounting: what an artifact comparison drops
# ("speedup" is profile-sweep's own wall-clock ratio, "timing" the
# scaling benches' per-row wall-clock section).
TIMING = (
    "created", "profile", "elapsed_seconds", "executed_tasks", "cached_tasks",
    "speedup", "timing",
)
# Experiments whose table is wall-clock and cache hits.
WALL_CLOCK_TABLE = (PROFILE_SWEEP, ENGINE_SCALING, SHARDED_SCALING)
# The array engine needs numpy >= 2.0 (the repro[fast] extra); without it
# the E17 case is object-only.
ENGINES = ["object", "array"] if numpy_available() else ["object"]

TOY = {
    "sweep": ["steady", "-n", "8", "--deadline", "64", "--rounds", "120", "--lean"],
    "profile-sweep": [
        "steady", "-n", "8", "--deadline", "64", "--rounds", "120", "--lean",
    ],
    "chaos-soak": [
        "-n", "8", "--rounds", "60", "--deadline", "16",
        "--drop", "0.0", "0.1", "--delay", "0.1",
    ],
    "direct-soak": ["-n", "10", "--rounds", "60", "--drop", "0.3"],
    "targeted-soak": [
        "-n", "12", "--rounds", "96", "--policies", "collector-starver",
        "--budgets", "2:32", "--presets", "default",
    ],
    "load-soak": ["-n", "16", "--rounds", "120", "--rates", "1"],
    "perf chaos-scaling": [
        "--ns", "8", "12", "--drop", "0.0", "--delay", "0.1", "--rounds", "40",
    ],
    "perf scaling": ["--ns", "8", "12", "--engine", *ENGINES, "--rounds", "40"],
    "net bench": ["--ns", "8", "--rounds", "40", "--workers", "2"],
}
CELLS = {
    "sweep": 1,
    "profile-sweep": 1,
    "chaos-soak": 2,
    "direct-soak": 2,
    "targeted-soak": 2,
    "load-soak": 1,
    "perf chaos-scaling": 2,
    "perf scaling": 2 * len(ENGINES),
    "net bench": 2,
}

every_experiment = pytest.mark.parametrize(
    "exp", EXPERIMENTS, ids=[exp.command.replace(" ", "-") for exp in EXPERIMENTS]
)


def argv(exp, *extra):
    return [
        *exp.command.split(), *TOY[exp.command],
        "--seeds", "1", "--jobs", "1", *map(str, extra),
    ]


def artifacts(out):
    """The (sidecar document, TXT text) pair an ``--out`` directory holds."""
    (bench,) = out.glob("BENCH_*.json")
    (txt,) = out.glob("*.txt")
    return json.loads(bench.read_text()), txt.read_text()


def deterministic(document):
    body = {key: value for key, value in document.items() if key not in TIMING}
    if document["name"] == "e20_open_workload":
        # E20 carries wall-clock throughput inside its cells and knees.
        body = json.loads(
            json.dumps(body),
            object_hook=lambda obj: {
                key: value
                for key, value in obj.items()
                if not key.startswith("rumors_per_sec")
            },
        )
    return body


def test_toy_sizes_cover_the_registry():
    assert sorted(TOY) == sorted(exp.command for exp in EXPERIMENTS)


@every_experiment
def test_cli_smoke(exp, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv(exp, "--out", out)) == 0
    stdout = capsys.readouterr().out
    document, txt = artifacts(out)
    assert document["seeds"] == 1
    assert document["executed_tasks"] == CELLS[exp.command]
    assert document["profile"]["tasks"] == CELLS[exp.command]
    # The TXT is the first table exactly as printed.
    assert stdout.startswith(txt)
    assert (out / "cache").is_dir()

    # A resumed run reads every task back from the cache...
    assert main(argv(exp, "--out", out, "--resume")) == 0
    capsys.readouterr()
    resumed, resumed_txt = artifacts(out)
    assert resumed["executed_tasks"] == 0
    assert resumed["cached_tasks"] == CELLS[exp.command]
    assert deterministic(resumed) == deterministic(document)
    if exp not in WALL_CLOCK_TABLE:
        assert resumed_txt == txt

    # ...and --json prints the sidecar's payload instead of the table.
    assert main(argv(exp, "--out", out, "--resume", "--json")) == 0
    printed = json.loads(capsys.readouterr().out)
    sidecar, _ = artifacts(out)
    envelope = {key: sidecar[key] for key in ("name", "schema")}
    assert deterministic(dict(printed, **envelope)) == deterministic(sidecar)


@every_experiment
def test_resume_needs_out(exp, capsys):
    assert main(argv(exp, "--resume")) == 2
    assert "--resume needs --out" in capsys.readouterr().err


@every_experiment
def test_bench_sidecar_deterministic(exp, tmp_path, capsys):
    """Two fresh runs: identical sidecars (timing aside) and tables."""
    runs = []
    for tag in ("a", "b"):
        assert main(argv(exp, "--out", tmp_path / tag)) == 0
        runs.append(artifacts(tmp_path / tag))
    capsys.readouterr()
    (first, first_txt), (second, second_txt) = runs
    assert deterministic(first) == deterministic(second)
    if exp not in WALL_CLOCK_TABLE:
        assert first_txt == second_txt


class TestExits:
    """Every experiment leaves through the same three doors."""

    @every_experiment
    def test_invariant_violation_exits_1(self, exp, monkeypatch, capsys):
        def tripped(*args, **kwargs):
            raise InvariantViolation(7, [])

        monkeypatch.setattr(runner, "sweep_congos", tripped)
        assert main(argv(exp)) == 1
        assert "INVARIANT VIOLATION: round 7" in capsys.readouterr().err

    @every_experiment
    def test_interrupt_exits_130_with_the_resume_hint(
        self, exp, monkeypatch, tmp_path, capsys
    ):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "sweep_congos", interrupted)
        assert main(argv(exp)) == 130
        err = capsys.readouterr().err
        assert "interrupted after 0 of {} tasks".format(CELLS[exp.command]) in err
        assert "--resume" not in err  # nothing was cached: no --out
        assert main(argv(exp, "--out", tmp_path)) == 130
        assert "rerun with --resume" in capsys.readouterr().err

    @every_experiment
    def test_unclean_run_exits_1(self, exp, monkeypatch, capsys):
        def leaky(*args, **kwargs):
            sweep = sweeps.sweep_congos(*args, **kwargs)
            for cell in sweep.cells:
                cell.runs = [
                    dataclasses.replace(run, clean=False) for run in cell.runs
                ]
            return sweep

        monkeypatch.setattr(runner, "sweep_congos", leaky)
        assert main(argv(exp)) == 1


def test_sharded_digest_mismatch_exits_1(monkeypatch, capsys):
    """E18's verdict: a sharded record that is not the in-process record."""

    def diverged(*args, **kwargs):
        sweep = sweeps.sweep_congos(*args, **kwargs)
        for cell in sweep.cells:
            if cell.cell.get("backend") == "sharded":
                cell.runs = [
                    dataclasses.replace(run, total=run.total + 1)
                    for run in cell.runs
                ]
        return sweep

    monkeypatch.setattr(runner, "sweep_congos", diverged)
    assert main(argv(SHARDED_SCALING, "--json")) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_clean"] and not payload["all_digests_match"]
    assert [run["digest_match"] for run in payload["runs"]] == [None, False]


# Option strings (and positionals) per command, a suite nested under
# ``perf`` / ``net`` by its full command.  A change here is a change to the
# CLI's surface: make it on purpose.
SHARED = {"--seeds", "--jobs", "--out", "--resume", "--json"}
FLAG_SURFACE = {
    "run": {
        "scenario", "-n", "--rounds", "--seed", "--seeds", "--jobs",
        "--deadline", "--tau", "--json", "--metrics", "--backend",
        "--workers", "--engine",
    },
    "trace": {
        "scenario", "-n", "--rounds", "--seed", "--deadline", "--tau",
        "--lean", "--out", "--rumor", "--metrics", "--backend", "--workers",
    },
    "sweep": SHARED | {
        "scenario", "-n", "--deadline", "--rounds", "--tau", "--lean",
        "--metrics",
    },
    "profile-sweep": SHARED | {
        "scenario", "-n", "--deadline", "--rounds", "--tau", "--lean",
    },
    "chaos-soak": SHARED | {
        "-n", "--rounds", "--deadline", "--drop", "--delay", "--max-delay",
        "--duplicate", "--reorder", "--partition-period",
        "--partition-width", "--churn", "--hardened", "--trace", "--policy",
        "--per-round", "--total", "--blind",
    },
    "direct-soak": SHARED | {
        "-n", "--rounds", "--deadline", "--drop", "--delay", "--max-delay",
        "--duplicate", "--reorder",
    },
    "targeted-soak": SHARED | {
        "-n", "--rounds", "--policies", "--budgets", "--kind", "--window",
        "--drop", "--presets", "--aware-only",
    },
    "load-soak": SHARED | {
        "-n", "--rounds", "--rates", "--processes", "--presets", "--engines",
        "--deadline", "--dest-size", "--zipf-groups", "--zipf-s",
        "--queue-cap", "--max-wait", "--per-round",
    },
    "perf micro": {"--case", "--repeats", "--warmup", "--profile", "--json"},
    "perf scaling": SHARED | {"--ns", "--rounds", "--deadline", "--engine"},
    "perf chaos-scaling": SHARED | {
        "--ns", "--rounds", "--deadline", "--drop", "--delay",
    },
    "net verify": {
        "--scenario", "-n", "--rounds", "--seed", "--deadline", "--tau",
        "--lean", "--workers", "--json",
    },
    "net bench": SHARED | {"--ns", "--rounds", "--deadline", "--workers"},
    "scenarios": set(),
    "partitions": {"-n", "--tau", "--seed"},
    "bounds": {"-n", "--dmin", "--dmax", "--tau"},
}


def commands(parser, words=()):
    """Every runnable command's parser, keyed by its full command."""
    nested = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not nested:
        return {" ".join(words): parser}
    (subparsers,) = nested
    leaves = {}
    for name, child in subparsers.choices.items():
        leaves.update(commands(child, (*words, name)))
    return leaves


def test_flag_surface_is_pinned():
    surface = {
        command: {
            *(
                option
                for action in parser._actions
                for option in action.option_strings
                if option not in ("-h", "--help")
            ),
            *(
                action.dest
                for action in parser._actions
                if not action.option_strings
            ),
        }
        for command, parser in commands(build_parser()).items()
    }
    assert surface == FLAG_SURFACE


@pytest.mark.parametrize(
    "argv",
    [
        ["perf", "micro", "--ns", "16"],
        ["perf", "micro", "--seeds", "3"],
        ["perf", "scaling", "--case", "x"],
        ["perf", "scaling", "--warmup", "9"],
        ["perf", "scaling", "--drop", "0.5"],
        ["perf", "chaos-scaling", "--engine", "array"],
        ["perf", "chaos-scaling", "--profile"],
        ["net", "verify", "--resume"],
        ["net", "verify", "--ns", "5"],
        ["net", "verify", "--out", "d"],
        ["net", "bench", "--scenario", "churn"],
        ["net", "bench", "--lean"],
    ],
    ids=" ".join,
)
def test_a_suite_refuses_another_suites_flags(argv, capsys):
    # Each perf / net suite parses only the flags it reads: a sibling's
    # flag is a usage error, not a value silently ignored.
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args(argv)
    assert exited.value.code == 2
    assert "unrecognized arguments: {}".format(argv[2]) in capsys.readouterr().err

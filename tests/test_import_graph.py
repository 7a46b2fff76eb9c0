"""Each module loads only what it uses.

The subpackage ``__init__`` files carry docs only, so importing one
module pulls in its own imports and nothing else.  These pins keep it
that way: a re-export facade (or an eager import added to one) would
drag a whole subsystem into every process that touches the package —
the sharded path's spawned workers and the exec pool's workers pay that
on every start.  Each check runs in a fresh interpreter, since this
test process has long since imported everything.
"""

import subprocess
import sys

import pytest

import repro

_SRC = repro.__file__.rsplit("repro", 1)[0].rstrip("/\\")


def _loaded_by(module):
    code = (
        "import sys; sys.path.insert(0, {src!r}); import {module}; "
        "print('\\n'.join(sorted(sys.modules)))"
    ).format(src=_SRC, module=module)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "module, forbidden",
    [
        # One dataclass module: none of the run machinery.
        (
            "repro.core.config",
            ("repro.harness", "repro.load", "repro.chaos", "repro.net"),
        ),
        # The runner imports repro.load and repro.net lazily, only for the
        # runs that use them.
        ("repro.harness.runner", ("repro.load", "repro.net")),
        # What every spawned shard worker imports on start.
        ("repro.net.worker", ("repro.harness", "repro.load", "repro.exec")),
    ],
)
def test_module_loads_only_what_it_uses(module, forbidden):
    loaded = _loaded_by(module)
    assert module in loaded
    stray = [
        name for name in loaded
        if any(name == pkg or name.startswith(pkg + ".") for pkg in forbidden)
    ]
    assert not stray, "import {} loaded {}".format(module, stray)

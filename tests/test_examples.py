"""The examples that read the confidentiality auditor's state run to the
end (their own asserts pass) and report that no outsider learned a
plaintext."""

import os
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(_ROOT / "examples" / script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_quickstart_reports_no_outsider_leak():
    out = _run("quickstart.py")
    assert "Outsiders who learned the secret: none" in out
    assert "All good" in out


def test_team_broadcast_reports_no_plaintext_leak():
    out = _run("confidential_team_broadcast.py")
    # rumor, org, delivered, plaintext leaks, min coalition
    leaks = re.findall(r"^r\d+:\d+\s+(?:Acme|Beta)\s+\S+\s+(.+?)\s{2,}", out, re.M)
    assert len(leaks) == 8
    assert set(leaks) == {"none"}

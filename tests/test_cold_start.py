"""Commands that never load scipy.

Only a sparse solve imports scipy.  The lower-layer server SRN
eliminates its acyclic vanishing markings by back-substitution and the
upper layer is closed-form, so a sweep and a campaign timeline finish
without it.  ``reproduce`` solves the upper-layer SRN with GTH, a dense
solve over a generator filled without scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

# Runs one CLI command in a fresh interpreter and reports, as its last
# output line, the exit code and every scipy module loaded by then.
_SCRIPT = (
    "import json, sys\n"
    "from repro.__main__ import main\n"
    "code = main(sys.argv[1:])\n"
    "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
    "print(json.dumps({'code': code, 'scipy': loaded}))\n"
)


@pytest.mark.parametrize(
    "command",
    [
        ["sweep", "--roles", "dns,web,app", "--max-replicas", "3"],
        [
            "timeline", "--roles", "dns,web,app", "--max-replicas", "2",
            "--points", "12", "--phases", "canary:0.1:48:1,ramp:0.5:50%,fleet:1.0",
        ],
        ["reproduce"],
    ],
    ids=["sweep", "campaign-timeline", "reproduce"],
)
def test_command_never_imports_scipy(command):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *command],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"code": 0, "scipy": []}

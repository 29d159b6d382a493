"""The server's import path stays free of heavy optional modules."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_server_import_path_does_not_load_numpy():
    # A fresh interpreter: this test process may already hold numpy.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import sys\n"
        "import repro.api, repro.service\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr

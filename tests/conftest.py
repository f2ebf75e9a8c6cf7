import os
import subprocess
import sys
from pathlib import Path

import pytest

import sosproj

SRC = Path(sosproj.__file__).resolve().parents[1]


@pytest.fixture
def fresh_python():
    """Run a fresh interpreter on the sosproj under test; return the process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True
        )

    return run

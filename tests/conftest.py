import os
import subprocess
import sys
from pathlib import Path

import pytest

import sosproj

SRC = Path(sosproj.__file__).resolve().parents[1]


@pytest.fixture
def fresh_python():
    """Run a fresh interpreter on the sosproj under test; return the process.

    Each keyword argument sets that environment variable, or unsets it when
    given None.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(*args, **variables):
        env = dict(os.environ, PYTHONPATH=path)
        for name, value in variables.items():
            if value is None:
                env.pop(name, None)
            else:
                env[name] = value
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True
        )

    return run

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import auditscore

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).parent / "data"

# CI runs with HYPOTHESIS_PROFILE=ci: more examples for tests that set no
# max_examples, and a failure prints the blob that reproduces it
# (``@reproduce_failure``). Without the variable the defaults apply.
settings.register_profile("ci", max_examples=500, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def no_config_from_the_environment(monkeypatch):
    """No test reads the caller's ``AUDITSCORE_CONFIG``, nor does any child
    it starts; a test that wants one sets it."""
    monkeypatch.delenv("AUDITSCORE_CONFIG", raising=False)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def run_child(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this
    auditscore. Its stdout and stderr are captured unless ``kwargs`` say
    otherwise, and its stdout is block-buffered, as a pipe or file
    normally is."""
    env = dict(os.environ, PYTHONPATH=str(Path(auditscore.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)

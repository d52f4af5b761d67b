import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings

import auditscore
from auditscore import store

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


# A settle constant for reads that should record a history's identity. It
# stays above the kernel's timestamp tick, which is sound on a file system
# that keeps finer timestamps than that (ext4, tmpfs); every other read keeps
# the store's own constant, so a history written during a test is never
# settled for it.
SETTLE_NS = 20_000_000


def settle(path, monkeypatch):
    """Lower the store's settle constant to ``SETTLE_NS``, then wait until
    ``path`` has settled for it."""
    monkeypatch.setattr(store, "_SETTLE_NS", SETTLE_NS)
    while time.time_ns() - path.stat().st_ctime_ns <= SETTLE_NS:
        time.sleep(SETTLE_NS / 4e9)


@contextlib.contextmanager
def history_reads():
    """Record ``(kind, bytes)`` for each ``read`` and ``pread`` of a file that
    ``store`` opens without an opener: the history, not its index."""
    reads = []
    pread = os.pread

    class Counted(io.FileIO):
        def read(self, size=-1):
            chunk = super().read(size)
            reads.append(("read", len(chunk)))
            return chunk

    def history_open(file, mode="r", *args, opener=None, **kwargs):
        assert mode == "rb"
        return open(file, mode, *args, opener=opener, **kwargs) if opener else Counted(file)

    def counted_pread(fd, size, offset):
        chunk = pread(fd, size, offset)
        reads.append(("pread", len(chunk)))
        return chunk

    with mock.patch.object(store, "open", history_open, create=True), mock.patch.object(
        store.os, "pread", counted_pread
    ):
        yield reads

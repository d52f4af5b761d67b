import os
from pathlib import Path

import pytest
from hypothesis import settings

DATA_DIR = Path(__file__).parent / "data"

# CI runs with HYPOTHESIS_PROFILE=ci: more examples for tests that set no
# max_examples, and a failure prints the blob that reproduces it
# (``@reproduce_failure``). Without the variable the defaults apply.
settings.register_profile("ci", max_examples=500, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR

import pathlib
import sys

import pytest
from hypothesis import settings

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(pathlib.Path(__file__).parent))

# A run's verdict depends only on the tree: each property test draws the same
# examples every time, from the test itself, and no example saved by an
# earlier run is replayed. Each test keeps its own max_examples. For random
# draws and the example database, pass hypothesis's built-in profile:
# --hypothesis-profile=default --hypothesis-seed N.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def cli_records():
    """One fresh run of every case of ``byte_matrix.CASES``, by id, shared by
    the tests that check the CLI cases, so each command runs once a session."""
    import byte_matrix

    return byte_matrix.run_all()

import multiprocessing
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fails a test that leaves a child process (an explanation's worker) running."""
    yield
    assert multiprocessing.active_children() == [], "a child process outlived the test"

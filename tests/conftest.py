import multiprocessing
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fails a test that leaves a child process (an explanation's worker) running."""
    yield
    assert multiprocessing.active_children() == [], "a child process outlived the test"


@pytest.fixture(autouse=True)
def no_step_helper_left_running():
    """Fails a test that leaves a `kgex-step` thread (a training step's helper) alive."""
    yield
    helpers = [t.name for t in threading.enumerate() if t.name.startswith("kgex-step")]
    assert helpers == [], f"a step helper outlived the test: {helpers}"

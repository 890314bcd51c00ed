import os
import select

import pytest
from hypothesis import HealthCheck, settings

from sphereconvex import campaign
from support import no_child_left

settings.register_profile(
    "default",
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def _reaps_its_children():
    # `campaign._map` forks workers; a test that leaves one behind fails here,
    # not in a later test or in a benchmark run
    yield
    assert no_child_left(), "the test left a child process behind"


@pytest.fixture()
def in_child(monkeypatch):
    """`in_child(target)` makes the `_map` task for which target(task) is
    true run in a forked worker: this process delays its first claim of a
    task, for up to 60 s, until a child starts that task and writes a byte
    to a pipe.  Every task before it goes to the children too."""
    parent = os.getpid()
    r, w = os.pipe()

    def force(target) -> None:
        claim, task = campaign._claim, campaign._task
        waited = []

        def gated_claim(fd, stop=None):
            if os.getpid() == parent and not waited:
                waited.append(select.select([r], [], [], 60))
            return claim(fd, stop)

        def signalling_task(t):
            if os.getpid() != parent and target(t):
                os.write(w, b"x")
            return task(t)

        monkeypatch.setattr(campaign, "_claim", gated_claim)
        monkeypatch.setattr(campaign, "_task", signalling_task)

    yield force
    os.close(r)
    os.close(w)

import pytest

import kalpha.cli


@pytest.fixture
def pool_as_asked(monkeypatch):
    """simulate --workers N runs N formatter processes whatever the host's
    CPU count (the CLI caps N at it), so worker-count tests exercise the
    pool size they ask for."""
    monkeypatch.setattr(kalpha.cli, "_available_cpus", lambda: 8)

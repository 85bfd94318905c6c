import pytest

from willmorelab import willmore


@pytest.fixture
def one_process(monkeypatch):
    """Walk every quadrature in this process, as on a single CPU."""
    monkeypatch.setattr(willmore, "_cpu_count", lambda: 1)

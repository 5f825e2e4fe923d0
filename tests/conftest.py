import pytest

from cannings import TruncatedSampler


@pytest.fixture
def sampler_builds(monkeypatch):
    """List that grows by one at every TruncatedSampler construction."""
    builds = []
    init = TruncatedSampler.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TruncatedSampler, "__init__", counting_init)
    return builds

import pytest

from cannings import TruncatedSampler


@pytest.fixture
def sampler_builds(monkeypatch):
    """List of every TruncatedSampler built, in the order of construction."""
    builds = []
    init = TruncatedSampler.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(self)

    monkeypatch.setattr(TruncatedSampler, "__init__", counting_init)
    return builds

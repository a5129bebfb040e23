import pytest

from maxent_evalues import evariables


@pytest.fixture
def solves(monkeypatch):
    """The targets ripr_solve is called on, starting from an empty memo."""
    calls = []
    real = evariables.ripr_solve

    def spy(target, *args, **kwargs):
        calls.append(target)
        return real(target, *args, **kwargs)

    monkeypatch.setattr(evariables, "ripr_solve", spy)
    evariables._projection.cache_clear()
    yield calls
    evariables._projection.cache_clear()

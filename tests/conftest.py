import pytest

from maxent_evalues import evariables


@pytest.fixture(autouse=True)
def empty_design_memo():
    """Every test starts with no statistic built: what one test built, and
    the spies it saw build it, do not reach the next."""
    evariables._design.cache_clear()


@pytest.fixture
def solves(monkeypatch):
    """The targets ripr_solve is called on."""
    calls = []
    real = evariables.ripr_solve

    def spy(target, *args, **kwargs):
        calls.append(target)
        return real(target, *args, **kwargs)

    monkeypatch.setattr(evariables, "ripr_solve", spy)
    return calls

import pytest
from hypothesis import HealthCheck, settings

# Oracle calls on random words vary widely in cost; wall-clock deadlines are
# meaningless for them.
settings.register_profile(
    "superelliptic",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("superelliptic")


@pytest.fixture
def few_products(monkeypatch):
    """Allow at most 300 more ``cover.mul`` calls; a power taken |e| times fails fast."""
    from superelliptic import cover

    real, calls = cover.mul, []

    def counted(*factors):
        calls.append(len(factors))
        if len(calls) > 300:
            raise RuntimeError("more than 300 homology products")
        return real(*factors)

    monkeypatch.setattr(cover, "mul", counted)
    return calls

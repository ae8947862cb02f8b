from hypothesis import HealthCheck, settings

# Oracle calls on random words vary widely in cost; wall-clock deadlines are
# meaningless for them.
settings.register_profile(
    "superelliptic",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("superelliptic")

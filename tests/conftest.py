from hypothesis import HealthCheck, settings

# One profile for every property test: the same examples on each run, no
# time limit per example on a slow or loaded machine, and no example
# database written into the checkout.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("tier1")

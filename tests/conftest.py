from hypothesis import settings

# Generated inputs are drawn deterministically, so every run of the suite
# checks the same examples; no example database is written.
settings.register_profile("nilorbit", derandomize=True, deadline=None, database=None)
settings.load_profile("nilorbit")

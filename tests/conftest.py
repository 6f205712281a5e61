"""Hypothesis runs derandomized and without an example database, so every
run of the suite tries the same examples and a failure reproduces."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

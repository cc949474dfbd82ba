"""Shared pytest setup.

Property tests run under one hypothesis profile: derandomized, so every
run draws the same examples, and without a per-example deadline, so a
slow or busy machine cannot turn a passing property into a failure. With
fixed examples there is nothing worth saving to an example database.
"""

from hypothesis import settings

settings.register_profile("kvprune", derandomize=True, deadline=None, database=None)
settings.load_profile("kvprune")

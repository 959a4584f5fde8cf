"""Test-wide settings: one deterministic hypothesis profile.

Every property test draws the same examples on every run (``derandomize``),
keeps no example database, and has no per-example deadline, so a slow
machine cannot turn a passing property into a timeout.
"""

from hypothesis import settings

settings.register_profile("qcensor", derandomize=True, deadline=None, database=None)
settings.load_profile("qcensor")

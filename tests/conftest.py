"""Test-suite settings: hypothesis draws the same examples on every run
(derandomized, no example database), so a tier-1 result is reproducible."""

from hypothesis import settings

settings.register_profile("ctie", derandomize=True, database=None, deadline=None)
settings.load_profile("ctie")

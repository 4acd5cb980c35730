"""Tier-1 is deterministic on any host.

Hypothesis draws its examples from a hash of each test function
instead of fresh entropy, so a property test that passes passes on
every run and every machine — a suite that is green only for the
examples it happened to draw is not green.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

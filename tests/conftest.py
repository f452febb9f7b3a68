"""Hypothesis profiles for the test suite.

``tier1`` (loaded by default) is derandomized: every run draws the same
examples, so a failure found once recurs.  ``random`` draws fresh examples
on each run; select it with ``pytest --hypothesis-profile random``.  Both
keep each test's own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("tier1")

"""One hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, and without per-example deadlines, since the
definitional oracles are exponential by design."""

from hypothesis import settings

settings.register_profile("qmlib", derandomize=True, deadline=None)
settings.load_profile("qmlib")

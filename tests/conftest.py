"""One hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, and without per-example deadlines, since the
definitional oracles are exponential by design.

The mutant gate's child runs (``tests/test_mutants.py``) select the
``mutant`` profile: the same, without the shrink phase, since a killed
mutant needs a failing example and not its smallest form."""

from hypothesis import Phase, settings

settings.register_profile("qmlib", derandomize=True, deadline=None)
settings.register_profile("mutant", settings.get_profile("qmlib"),
                          phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("qmlib")

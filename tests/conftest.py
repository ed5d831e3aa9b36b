"""The one hypothesis profile of the suite: derandomized, so every run draws
the same examples, and without an example database, so a run writes no
.hypothesis directory."""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("suite")

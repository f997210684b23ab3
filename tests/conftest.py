"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived
from each test's source (``derandomize``), so every run draws the same
ones, no example database is written, and no per-example deadline makes
a slow machine fail a correct test.  Hypothesis also caches the literals
it reads from local source files; pointing its storage at the null device
makes those writes fail quietly, so a run leaves no ``.hypothesis/``.
"""

import os

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.devnull)

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

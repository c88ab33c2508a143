"""Suite-wide test settings.

Hypothesis runs derandomized and without its example database, so every
run of the suite draws the same examples and writes no files.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

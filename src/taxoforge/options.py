"""emtt's option values that the CLI needs too, kept apart from numpy.

``cli`` builds its flags and checks from these without importing the
clustering modules, so a run that never clusters never loads numpy;
``clustering`` and ``emtt`` read the same constants.
"""

LINKAGES = ("average", "complete", "single")
DEFAULT_LINKAGE = "average"
DEFAULT_DELTA = 0.15
DEFAULT_K_MAX = 50

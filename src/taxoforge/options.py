"""The pipelines' option values that the CLI needs too, kept apart from the pipelines.

``cli`` builds its flags and checks from these without importing the
modules that use them, so a run that never clusters never loads numpy and
an emtt run never loads ``gett`` or ``llm``; ``clustering``, ``emtt``,
``gett`` and ``llm`` read the same constants.
"""

LINKAGES = ("average", "complete", "single")
DEFAULT_LINKAGE = "average"
DEFAULT_DELTA = 0.15
DEFAULT_K_MAX = 50

DEFAULT_ROOT = "Thing"
DEFAULT_EDGE_THRESHOLD = 0.5
DEFAULT_MAX_ITERS = 10
DEFAULT_CHAT_MODEL = "gpt-4"

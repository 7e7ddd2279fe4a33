"""Construction-schedule toolkit: graph context sampling, retrieval stores,
masked-cell evaluation, and preference alignment."""

__version__ = "0.1.0"


class DataError(Exception):
    """Base of each module's error for input data it cannot use: a schedule,
    knowledge store, record, prompt or training set. The CLI maps it to
    exit 2."""

"""The exceptions a command can end in: one class for each of the CLI exit codes 2, 3 and 4.

`check_seed` is the one seed rule, which every entry point that takes a seed
applies, and `are_counts` the one rule for a size or count.
"""

import numbers
import operator


class ConfigError(ValueError):
    """Exit 2: a config, argument or call the program cannot run as given."""


class NumericAbortError(Exception):
    """Exit 3: the numbers broke down (a NaN loss, an all-zero symbol row)."""


class CorruptArtifactError(Exception):
    """Exit 4: a checkpoint or dataset file is not what it claims to be."""


def check_seed(seed) -> int:
    """`seed` as an int; a ConfigError unless it is a non-negative integer (numpy's seeding rule)."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise ConfigError(f"bad seed {seed!r}, expected a non-negative integer") from None
    if value < 0:
        raise ConfigError(f"bad seed {seed!r}: seeds must be non-negative")
    return value


def are_counts(values, least: int = 1) -> bool:
    """Whether values is a non-empty tuple or list of integers >= least."""
    return isinstance(values, (tuple, list)) and bool(values) and all(
        isinstance(v, numbers.Integral) and v >= least for v in values
    )

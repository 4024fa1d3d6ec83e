"""The exceptions a command can end in: one class for each of the CLI exit codes 2, 3 and 4."""


class ConfigError(ValueError):
    """Exit 2: a config, argument or call the program cannot run as given."""


class NumericAbortError(Exception):
    """Exit 3: the numbers broke down (a NaN loss, an all-zero symbol row)."""


class CorruptArtifactError(Exception):
    """Exit 4: a checkpoint or dataset file is not what it claims to be."""

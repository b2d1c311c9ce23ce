"""Exception hierarchy shared by all modules, with CLI exit codes."""


class QuatlfunError(Exception):
    """Base class; carries the CLI exit code for the failure family."""

    exit_code = 5


class UsageError(QuatlfunError):
    """Caller passed incompatible arguments (mismatched rings, bad matrix...)."""

    exit_code = 2


class ConfigurationError(QuatlfunError):
    """A pipeline configuration violates a stated constraint."""

    exit_code = 2


class UnsupportedConfigurationError(QuatlfunError):
    """Mathematically valid input outside the supported regime (e.g. split torus)."""

    exit_code = 2


class DataMissingError(QuatlfunError):
    """Required eigenvalues or fixtures are not available."""

    exit_code = 3


class SearchExhaustedError(QuatlfunError):
    """A bounded search ended without an answer; not a proof of nonexistence."""

    exit_code = 4


class ResourceLimitError(QuatlfunError):
    """A traversal exceeded its configured bound."""

    exit_code = 4


class InvariantViolationError(QuatlfunError):
    """An internal certificate failed; indicates a bug."""

    exit_code = 5

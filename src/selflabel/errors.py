"""Exception hierarchy. Each class carries the CLI exit code it maps to."""


class SelfLabelError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(SelfLabelError):
    """Invalid configuration value or invalid arguments to an operation."""

    exit_code = 2


class DataError(SelfLabelError):
    """Missing, malformed, or mutually inconsistent data files."""

    exit_code = 3


class NumericError(SelfLabelError):
    """Numerical failure: non-finite values, zero norms, degenerate statistics."""

    exit_code = 4


class TrainingError(NumericError):
    """Training diverged. Carries the epoch at which the loss became non-finite."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which hold no epoch
        return type(self), (self.args[0], self.epoch)


class RunLockedError(SelfLabelError):
    """The run directory is open in another process."""

    exit_code = 5

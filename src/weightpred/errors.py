"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage problems (including
a :class:`SettingError`) exit 1, IO/parse problems exit 2, and
domain/numeric problems exit 3.
"""


class WeightpredError(Exception):
    """Base class for errors raised by this package."""


class ParseError(WeightpredError):
    """A file could not be read or a line could not be interpreted."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)


class SettingError(WeightpredError, ValueError):
    """A setting is out of its range; ``setting`` names the parameter."""

    def __init__(self, setting, problem):
        self.setting = setting
        self.problem = problem
        super().__init__(f"{setting} {problem}")


class DomainError(WeightpredError):
    """An element or argument is outside the domain an operation requires."""


class PredictionError(WeightpredError):
    """A predictor cannot produce a value (e.g. empty training set)."""

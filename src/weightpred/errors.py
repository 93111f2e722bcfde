"""Exception types shared across the package, the setting-type checks, and
the reading of input files as UTF-8 text and JSON.

The CLI maps these onto its exit-code contract: usage problems (including
a :class:`SettingError`) exit 1, IO/parse problems exit 2, and
domain/numeric problems exit 3.
"""

import json
import numbers
import sys
from pathlib import Path


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


def read_bytes(path, what: str) -> bytes:
    """The bytes of the file at ``path``; ``what`` names the file in the
    :class:`ParseError` raised when it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc}", path=str(path)) from exc


def utf8_text(data: bytes, path) -> str:
    """``data``, the bytes of the file at ``path``, decoded as UTF-8 after
    dropping one leading byte-order mark.

    Raises :class:`ParseError` naming the file and the line of the first
    byte that is not UTF-8 text, whatever the locale's encoding; lines are
    numbered as ``str.splitlines`` numbers them.
    """
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"not UTF-8 text: byte {data[exc.start]:#04x} ({exc.reason})",
                         path=str(path), line=line) from None


def json_value(text: str, path, line=None, what="invalid JSON", **options):
    """``json.loads(text, **options)`` of text from the file at ``path``, or
    a :class:`ParseError` saying ``what`` and naming the file (and ``line``)
    for any text it refuses: bad JSON, an integer of more digits than
    ``int`` converts, or nesting deeper than the recursion limit."""
    try:
        return json.loads(text, **options)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what}: {exc}", path=str(path), line=line) from None


class SettingError(WeightpredError, ValueError):
    """A setting is out of its range; ``setting`` names the parameter."""

    def __init__(self, setting, problem):
        self.setting = setting
        self.problem = problem
        super().__init__(f"{setting} {problem}")


def check_int(setting, value, minimum) -> None:
    """Raise ``SettingError`` unless ``value`` is an ``int`` of at least
    ``minimum``.  A ``bool`` or a float is not an integer setting, as for
    the CLI's ``--config`` values."""
    if type(value) is not int:
        raise SettingError(setting, f"must be an integer, got {value!r}")
    if value < minimum:
        raise SettingError(setting, f"must be >= {minimum}, got {value!r}")


def check_float(setting, value) -> None:
    """Raise ``SettingError`` unless ``value`` is a real number that a
    float can hold.  A ``bool`` is not a float setting, as for the CLI's
    ``--config`` values."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SettingError(setting, f"must be a number, got {value!r}")
    if not isinstance(value, float) and abs(value) > sys.float_info.max:  # float() overflows
        raise SettingError(setting, f"must be at most {sys.float_info.max!r} in magnitude")


class DomainError(WeightpredError):
    """An element or argument is outside the domain an operation requires."""


class PredictionError(WeightpredError):
    """A predictor cannot produce a value (e.g. empty training set)."""

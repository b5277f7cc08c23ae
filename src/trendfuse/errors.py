"""Exception hierarchy shared across the package.

Data-shaped problems (bad files, bad values) derive from DataError so the
CLI can map them to one exit code; config and contract violations stay
separate because they indicate caller bugs, not bad inputs. The config
dataclasses check their values with `is_real`, `check_integer` and
`check_bool`, so a malformed value is a ConfigError, never a TypeError deep
in the program.
`open_text` makes a data file that is not UTF-8 a DataError; `read_json` reads through it.
"""

import contextlib
import json
import numbers
from pathlib import Path


class ShapeError(ValueError):
    """Tensor operands have incompatible shapes."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataError(ValueError):
    """Base for problems with user-supplied data files."""


class ParseError(DataError):
    """Unparseable field; the message starts with the file and its 1-based line."""


class SchemaError(DataError):
    """File lacks a required column or field."""


class DegenerateInputError(DataError):
    """Input has no usable spread (constant sequence, zero variance)."""


class DivergenceError(RuntimeError):
    """A non-finite loss (message names epoch and batch) or output row (its date)."""


class ProviderError(RuntimeError):
    """A summary provider failed; `__cause__` carries the original error."""


def is_real(value) -> bool:
    """Whether a config value is a real number; bools and strings are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(name: str, value, low: int) -> None:
    """Raise ConfigError unless a config value is an integer (not a bool) >= low."""
    if not (is_real(value) and isinstance(value, numbers.Integral)) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def check_bool(name: str, value) -> None:
    """Raise ConfigError unless a config value is true or false (not "no", 0)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


@contextlib.contextmanager
def open_text(path):
    """`path` opened for reading as UTF-8 text, with newline="" for csv, past a
    leading byte-order mark (Excel writes one); bytes that do not decode are
    a DataError naming the file and the bad byte's offset from its start."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            # `err.start` counts from the decoder's chunk, past any mark: decode it whole
            try:
                Path(path).read_bytes().decode("utf-8")
            except UnicodeDecodeError as whole:
                err = whole
            raise DataError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None


def read_json(path, what: str):
    """The JSON document in the UTF-8 file `path` (`open_text`); text that
    is not JSON is a DataError saying `path: <what> is not valid JSON`."""
    with open_text(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:  # RecursionError: nested too deep
        raise DataError(f"{path}: {what} is not valid JSON ({err})") from None

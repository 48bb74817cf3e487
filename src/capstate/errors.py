"""Exception types shared across the package, and the one rule for input files.

``ValueError`` is raised for plain API misuse (bad parameters, wrong shapes).
The classes below mark conditions the CLI maps to distinct exit codes.
:func:`read_input` holds the one rule every file a stage reads goes through;
it lives here because every reader can import this module.
"""

import hashlib
import os
import stat


class CapstateError(Exception):
    """Base class for package-specific failures."""


class ConfigError(CapstateError):
    """Invalid or inconsistent run configuration."""


class DataError(CapstateError):
    """Input files missing or malformed; message names the file (and row when known)."""


class NumericalError(CapstateError):
    """A numerical procedure failed (non-convergence, non-finite values)."""


def read_input(path, encoding=None, error=DataError) -> tuple[bytes | str, str]:
    """The bytes of the input file ``path`` (their text with an ``encoding``)
    and their sha256 hex digest, read once. ``path`` must name a regular
    file, else ``error`` is raised naming it: ``missing file: <path>``;
    ``<path>: not a regular file`` (a directory, a FIFO, which is never
    opened, a device); ``<path>: not a text file: ...`` for bytes that do not
    decode; ``<path>: embedded null byte`` for a name holding NUL, which no
    path can hold; or ``<path>: <strerror>`` for any other OSError while
    opening or reading it (no permission, a name too long)."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise error(f"{path}: not a regular file")
        with open(path, "rb") as fh:
            data = fh.read()
        return data.decode(encoding) if encoding else data, hashlib.sha256(data).hexdigest()
    except FileNotFoundError:
        raise error(f"missing file: {path}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not a text file: {exc}") from None
    except ValueError as exc:  # after UnicodeDecodeError, a subclass: os.stat refuses a name holding NUL
        raise error(f"{path}: {exc}") from None
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from None

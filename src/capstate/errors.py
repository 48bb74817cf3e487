"""Exception types shared across the package, and the one rule for input files.

``ValueError`` is raised for plain API misuse (bad parameters, wrong shapes).
The classes below mark conditions the CLI maps to distinct exit codes.
:func:`reading` holds the rule every file a stage reads goes through and
:func:`read_input` reads a file under it; they live here because every
reader can import this module.
"""

import contextlib
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


@contextlib.contextmanager
def reading(path, error=DataError):
    """Run a block that opens and reads the input file ``path``, which must
    name a regular file. Otherwise ``error`` is raised naming the path:
    ``missing file: <path>``; ``<path>: not a regular file`` (a directory,
    a FIFO, a device); ``<path>: not a text file: ...`` when the block
    decodes bytes that are not UTF-8; or ``<path>: <strerror>`` for any
    other OSError while the block opens or reads it (no permission, a name
    too long). Whatever else the block raises passes through."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise error(f"{path}: not a regular file")
        yield
    except FileNotFoundError:
        raise error(f"missing file: {path}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not a text file: {exc}") from None
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from None


def read_input(path, encoding=None, error=DataError) -> tuple[bytes | str, str]:
    """The bytes of the input file ``path`` (their text with an ``encoding``)
    and their sha256 hex digest, read once under :func:`reading`: a path that
    breaks its rule (a FIFO is never opened) or bytes that do not decode
    raise ``error``."""
    with reading(path, error), open(path, "rb") as fh:
        data = fh.read()
        return data.decode(encoding) if encoding else data, hashlib.sha256(data).hexdigest()

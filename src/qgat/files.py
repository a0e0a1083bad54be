"""Artifact writes that a failing or killed run cannot leave half done."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[IO[str]]:
    """Open a text file that replaces ``path`` when the block ends.

    The content goes to a temporary file beside ``path``, is flushed to disk
    and renamed over ``path`` in one step.  If the block raises, the temporary
    file is removed and ``path`` keeps whatever it held before.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

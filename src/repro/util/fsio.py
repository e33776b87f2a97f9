"""Crash-safe filesystem primitives shared by the on-disk artifacts.

Every process-shared artifact in this codebase — cache entries and
claims (:class:`~repro.batch.shared_cache.SharedCache`), worker metrics
dumps — is published the same way: write the complete document to a
temporary file *in the target directory* and :func:`os.replace` it
over the destination.  ``rename``
within one filesystem is atomic on POSIX, so a reader can observe the
old document or the new one but never an interleaving of the two, even
when the writer is killed mid-write (the orphaned ``*.tmp`` file is
garbage, not corruption).

N workers publishing the same key race only on which complete document
wins, which is harmless when the content is a pure function of the key.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_text"]


def atomic_write_text(path: str | Path, text: str, *,
                      durable: bool = False) -> None:
    """Atomically publish ``text`` at ``path`` (temp file + rename).

    The temporary file lives next to the destination so the final
    ``os.replace`` never crosses a filesystem boundary.  With
    ``durable=True`` the data is fsynced before the rename, trading one
    disk flush for the guarantee that a machine crash cannot leave the
    *renamed* file empty on journalled filesystems.

    Raises ``OSError`` like :func:`open` would; on any failure the
    destination is untouched and the temp file is removed.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise

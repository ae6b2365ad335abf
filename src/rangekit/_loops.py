"""Loader of the compiled stream loops, the extension module ``_loops.c``.

``lib()`` compiles the C source with ``cc`` and ``CFLAGS``, which carry
the include directory of ``Python.h``, on its first call and imports the
result.  The build is cached in this package's ``__pycache__``, under a
name keyed by a CRC of the source and ``CFLAGS`` and ending in the
interpreter's ``EXT_SUFFIX``, and written atomically, so later processes
import it at once; a new build removes the earlier ones beside it.  When
compiling, writing or importing fails, as it does without ``cc`` or
``Python.h``, ``lib()`` returns None, and the stream functions of
``rangecoder`` run their Python loops; setting ``_lib`` to None does the
same.
"""

from __future__ import annotations

import importlib.util
import os
import sysconfig
import zlib
from pathlib import Path
from types import ModuleType

_SOURCE = Path(__file__).with_name("_loops.c")
CFLAGS = ("-O3", "-shared", "-fPIC", "-I" + sysconfig.get_path("include"))
_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")

_UNTRIED = object()
_lib = _UNTRIED


def lib() -> ModuleType | None:
    """The imported stream loops, or None if they could not be built."""
    global _lib
    if _lib is _UNTRIED:
        _lib = _load(_SOURCE)
    return _lib


def _load(source: Path) -> ModuleType | None:
    try:
        path = _build_path(source)
        if not path.exists():
            _compile(source, path)
            _remove_other_builds(source, path)
        # the module's name picks its init function, PyInit__loops
        spec = importlib.util.spec_from_file_location("_loops", path)
        loaded = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded)
    except (OSError, ImportError):
        return None
    return loaded


def _build_path(source: Path) -> Path:
    """Where the build of ``source`` under ``CFLAGS`` is cached."""
    # a CRC keys the cache: hashlib would load OpenSSL, about 3.5 MiB
    key = zlib.crc32(" ".join(CFLAGS).encode(), zlib.crc32(source.read_bytes()))
    return source.parent / "__pycache__" / f"{source.stem}-{key:08x}{_SUFFIX}"


def _remove_other_builds(source: Path, path: Path) -> None:
    """Delete the cached builds of ``source`` other than ``path``: earlier
    versions of the source or its flags.  A process that loaded one keeps
    its mapping; one that fails to load it falls back to the Python loops."""
    for old in path.parent.glob(f"{source.stem}-*"):
        if old != path:
            try:
                old.unlink()
            except OSError:  # removed meanwhile, or not ours to remove
                pass


def _compile(source: Path, path: Path) -> None:
    """Build ``path`` from ``source``, or raise OSError."""
    import subprocess  # imported here: a cached build needs neither
    import tempfile

    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=_SUFFIX, dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(["cc", *CFLAGS, "-o", tmp, str(source)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)  # atomic: no process loads half a file
    except subprocess.SubprocessError as exc:  # failed or hung
        raise OSError(f"cc failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)

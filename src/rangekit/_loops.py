"""Loader of the compiled stream loops in ``_loops.c``.

``lib()`` compiles the C source with ``cc`` and ``CFLAGS`` on its first
call and loads the result with ``ctypes``.  The shared object is cached
in this package's ``__pycache__``, under a name keyed by a CRC of the
source and ``CFLAGS``, and written atomically, so later processes load
it at once; a new build removes the earlier ones beside it.  When
compiling, writing or loading fails, ``lib()`` returns None, and the
stream functions of ``rangecoder`` run their Python loops; setting
``_lib`` to None does the same.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from pathlib import Path

_SOURCE = Path(__file__).with_name("_loops.c")
CFLAGS = ("-O3", "-shared", "-fPIC")

#: The slots of a loop's frame, in the order of ``enum frame`` in
#: ``_loops.c``, which says what each holds.
FRAME = ("rng", "code", "pos", "sym", "total", "rescales", "k", "interval",
         "cap", "new_rescale", "len", "limit", "syms", "h", "work")

_P, _N = ctypes.c_void_p, ctypes.c_int64
_LOOP = (_P, _P)  # the bytes (a bytes object or an address), the frame
_ARGTYPES = {"static_decode": _LOOP, "adaptive_decode": _LOOP,
             "static_encode": _LOOP, "adaptive_encode": _LOOP,
             "first_pass": (_P, _N, _N, _P)}

_UNTRIED = object()
_lib = _UNTRIED


def lib() -> ctypes.CDLL | None:
    """The loaded stream loops, or None if they could not be built."""
    global _lib
    if _lib is _UNTRIED:
        _lib = _load(_SOURCE)
    return _lib


def _load(source: Path) -> ctypes.CDLL | None:
    try:
        path = _build_path(source)
        if not path.exists():
            _compile(source, path)
            _remove_other_builds(source, path)
        loaded = ctypes.CDLL(str(path))
        for name, argtypes in _ARGTYPES.items():
            fn = getattr(loaded, name)
            fn.argtypes, fn.restype = argtypes, _N
    except (OSError, AttributeError):
        return None
    return loaded


def _build_path(source: Path) -> Path:
    """Where the build of ``source`` under ``CFLAGS`` is cached."""
    # a CRC keys the cache: hashlib would load OpenSSL, about 3.5 MiB
    key = zlib.crc32(" ".join(CFLAGS).encode(), zlib.crc32(source.read_bytes()))
    return source.parent / "__pycache__" / f"{source.stem}-{key:08x}.so"


def _remove_other_builds(source: Path, path: Path) -> None:
    """Delete the cached builds of ``source`` other than ``path``: earlier
    versions of the source or its flags.  A process that loaded one keeps
    its mapping; one that fails to load it falls back to the Python loops."""
    for old in path.parent.glob(f"{source.stem}-*.so"):
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
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
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

"""The compiled stream loops under AddressSanitizer and UBSan (opt-in).

    PYTHONPATH=src python -m pytest -q -m sanitize

builds the extension ``_loops.c`` with the flags it ships with,
``_loops.CFLAGS`` and ``_loops.include_flag()`` for ``Python.h``, plus
``-g -fno-omit-frame-pointer -fsanitize=address,undefined
-fno-sanitize-recover=all``, so that the sanitizers check the code that
runs, at the optimisation level it ships with.  It reruns
``tests/test_loops.py`` and the mutated-stream test of
``tests/test_rangecoder.py`` in a child pytest that imports that build,
with gcc's ASan runtime preloaded and ``PYTHONMALLOC=malloc``, so that
every buffer the loops read or write comes from the instrumented
``malloc``: pymalloc serves blocks of up to 512 bytes from its own
arenas, where ASan sees no overflow.  The loops allocate their work
arrays themselves, at their exact size, so ASan checks directly that
the adaptive decode's lookahead reaches no further than ``2 top - 1``
and that a static decode writes its symbol table within its array.  A
sanitizer report aborts the child, which fails the test.  The default
run deselects it (``-m "not sanitize"`` in ``pyproject.toml``): it
builds with gcc and takes longer than the rest of the suite.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rangekit import _loops

ROOT = Path(__file__).resolve().parent.parent
FLAGS = (*_loops.CFLAGS, _loops.include_flag(), "-g", "-fno-omit-frame-pointer",
         "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
CHILD_TESTS = ("tests/test_loops.py",
               "tests/test_rangecoder.py::test_mutated_streams_decode_or_raise_format_error")

# a pytest plugin for the child: it makes the sanitized build the loops
# in use before any test module is imported
PLUGIN = """\
import os
from pathlib import Path
from rangekit import _loops

_loops._lib = _loops._load(Path(os.environ["SANITIZED_LOOPS_SOURCE"]))
if _loops._lib is None:
    raise RuntimeError("the sanitized build of _loops.c did not load")
"""


@pytest.mark.sanitize
def test_loop_tests_pass_on_a_sanitized_build(tmp_path):
    runtime = subprocess.run(["gcc", "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip("gcc has no ASan runtime")
    source = tmp_path / "_loops.c"
    shutil.copyfile(_loops._SOURCE, source)
    # the build goes where _loops._load looks for the cached build of source
    build = _loops._build_path(source)
    build.parent.mkdir()
    subprocess.run(["gcc", *FLAGS, "-o", str(build), str(source)], check=True)
    (tmp_path / "sanitized_loops.py").write_text(PLUGIN)
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               PYTHONMALLOC="malloc",
               SANITIZED_LOOPS_SOURCE=str(source),
               PYTHONPATH=os.pathsep.join((str(tmp_path), str(ROOT / "src"))))
    # --capture=sys leaves file descriptor 2 to the sanitizer's report
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--capture=sys", "-p", "sanitized_loops", *CHILD_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    assert " passed" in child.stdout.splitlines()[-1]

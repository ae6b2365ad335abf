"""The compiled stream loops under AddressSanitizer and UBSan (opt-in).

    PYTHONPATH=src python -m pytest -q -m sanitize

builds ``_loops.c`` with ``-fsanitize=address,undefined
-fno-sanitize-recover=all`` and reruns ``tests/test_loops.py`` and the
mutated-stream test of ``tests/test_rangecoder.py`` in a child pytest
that loads that build, with gcc's ASan runtime preloaded.  A sanitizer
report aborts the child, which fails the test.  The default run
deselects it (``-m "not sanitize"`` in ``pyproject.toml``): it builds
with gcc and takes longer than the rest of the suite.
"""

import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from rangekit import _loops

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ("-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-shared", "-fPIC")
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
    build = tmp_path / "__pycache__" / f"_loops-{zlib.crc32(source.read_bytes()):08x}.so"
    build.parent.mkdir()
    subprocess.run(["gcc", *FLAGS, "-o", str(build), str(source)], check=True)
    (tmp_path / "sanitized_loops.py").write_text(PLUGIN)
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               SANITIZED_LOOPS_SOURCE=str(source),
               PYTHONPATH=os.pathsep.join((str(tmp_path), str(ROOT / "src"))))
    # --capture=sys leaves file descriptor 2 to the sanitizer's report
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--capture=sys", "-p", "sanitized_loops", *CHILD_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    assert " passed" in child.stdout.splitlines()[-1]

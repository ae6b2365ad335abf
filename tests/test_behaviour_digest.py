"""The committed behaviour digests: IRC1 bytes, decoded symbols and work
counters over a grid that crosses K=32 and 64 and rescales at a lowered
count cap, recomputed by ``scripts/behaviour_digest.py``.

``behaviour_digest.json`` (a small grid) was generated before the
compiled stream loops existed, and ``behaviour_digest_default.json`` is
the script's default grid.  A regeneration of either is a behaviour
change and needs a stated reason.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def digest_args(golden: dict) -> list[str]:
    """The script's arguments, read back from the report they produced."""
    cap = next(key for key in golden if key.startswith("cap_"))
    return (["--n", str(golden["n"]), "--k", *map(str, golden["k"]),
             "--cap", cap[len("cap_"):]])


def test_behaviour_digest_matches_committed_file():
    check_digest("behaviour_digest.json")


def test_default_behaviour_digest_matches_committed_file():
    check_digest("behaviour_digest_default.json")


def check_digest(name: str) -> None:
    """Rerun the script with the arguments of ``name`` and compare."""
    golden = json.loads((DATA / name).read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "behaviour_digest.py"),
         *digest_args(golden)],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == golden

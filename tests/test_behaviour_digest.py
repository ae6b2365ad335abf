"""The committed behaviour digest: IRC1 bytes, decoded symbols and work
counters over a grid that crosses K=32 and 64 and rescales at a lowered
count cap, recomputed by ``scripts/behaviour_digest.py``.

The digest was generated before the compiled stream loops existed.  A
regeneration of ``tests/data/behaviour_digest.json`` is a behaviour
change and needs a stated reason.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "behaviour_digest.json"


def digest_args(golden: dict) -> list[str]:
    """The script's arguments, read back from the report they produced."""
    cap = next(key for key in golden if key.startswith("cap_"))
    return (["--n", str(golden["n"]), "--k", *map(str, golden["k"]),
             "--cap", cap[len("cap_"):]])


def test_behaviour_digest_matches_committed_file():
    golden = json.loads(GOLDEN.read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "behaviour_digest.py"),
         *digest_args(golden)],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == golden

"""tools/report_digest.py, which every byte-identity comparison rests on."""

import os
import re
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"


def _digest_lines(hash_seed, cwd):
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    proc = subprocess.run([sys.executable, str(DIGEST), "--seed", "7"], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def test_digests_do_not_depend_on_the_hash_seed(tmp_path):
    lines = _digest_lines(0, tmp_path)
    assert lines == _digest_lines(1, tmp_path)
    assert [line.split()[0] for line in lines] == ["ideals", "complexes", "theta_trees",
                                                   "cli_small"]
    assert all(re.fullmatch(r"\S+ +seed 7 +\d+ jobs  [0-9a-f]{64}", line) for line in lines)
    assert not any(tmp_path.iterdir())  # the inputs live in a temporary directory

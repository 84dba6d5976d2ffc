"""tools/report_digest.py, which every byte-identity comparison rests on."""

import os
import re
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"

# seed-7 digests of the workloads whose reports carry only logcy's own text.
# cli_small is not pinned: its usage-error reports carry argparse wording,
# which varies between Python versions.  A change that alters reports on
# purpose updates these pins.
PINNED = {
    "ideals": "1f5b386768c547466f360aa67b487254dc5d09cf8920fb692601bc5d03cd525d",
    "complexes": "acf94ac3e459ae966510e069b0911f3c8bf1f6b20e15073208128a910736ec49",
    "theta_trees": "216fd7ef887cb9f13bc51f03fe946dd37f0980918c2fb12cc3a9f4b21ebff29c",
}


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
    digests = {line.split()[0]: line.split()[-1] for line in lines}
    assert {name: digests[name] for name in PINNED} == PINNED


# complexes at two more seeds, which relabel the torus and RP^2 with other
# vertex labels, and so move the labels to other bits of a face mask
PINNED_COMPLEXES = {
    11: "88bef5c38f8ae3ecabf66ac49995024790ead1dd5eb3175e07945cfbd936dacc",
    4242: "4f7b44141761f15e7dd91588fd111be93cf5eb4bf02c227fffc6efae085485b2",
}


def test_complexes_digests_at_more_seeds(tmp_path):
    proc = subprocess.run([sys.executable, str(DIGEST), "--workload", "complexes",
                           "--seed", *map(str, PINNED_COMPLEXES)], cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert {int(line[2]): line[-1] for line in lines} == PINNED_COMPLEXES


# seed 11 of ideals and theta_trees: `ring degenerate` builds a Stanley-Reisner
# complex and takes its Gorenstein verdict, and `sr present` a dual complex
PINNED_SEED_11 = {
    "ideals": "61bbdc30b150a12be0683b6d3b29b6f6de8d2f8b2d80edb8371d7aa27bebfc24",
    "theta_trees": "8cc7c62ce4f0eec037ae45396d725b1486dd5a9dd016807563adc5522e56d3a7",
}


def test_ideals_and_theta_trees_digests_at_seed_11(tmp_path):
    proc = subprocess.run([sys.executable, str(DIGEST), "--workload", *PINNED_SEED_11,
                           "--seed", "11"], cwd=tmp_path, capture_output=True, text=True,
                          check=True)
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert {line[0]: line[-1] for line in lines} == PINNED_SEED_11

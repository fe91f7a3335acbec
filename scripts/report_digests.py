"""Print one sha256 per verification report, to compare two checkouts' bytes.

Usage:

    PYTHONPATH=src python scripts/report_digests.py > digests.txt

The reports are those of the four golden configs (``tests/golden``, CSV and
JSON), of the exterior, dirac and robin suites, in CSV and JSON, on the
first 16 seeded passes (ball radius and config seed) of the ``spectra``
benchmark seeds 901 and 902, and of the transverse suite, in CSV and JSON,
on the R = 1 golden config at config seeds 1 to 4 (the golden configs have
seed 0, and the seeded minimality rows depend on the seed) and on the mass
grid ``TRANSVERSE_SHORT_GRID``.  Its masses 9, 20.25 and 81 lie below
``transverse.SERIES_FLOOR`` and no longer enter the sweep; its masses 729
and 6561 are the cut collars (sqrt(m) > ``transverse.TAU_CUT``) whose
segment length is not 4 (27/7 and 81/21): they guard the cut's layout,
which keeps the segments of the uncut collar; re-dividing the kept span
into segments of 4 would move their rows.  The passes are
rebuilt here from the seeds the way the benchmark draws them: 1024 fixed
radii in [0.5, 3], visited in a seeded random order, each with a seeded
32-bit config seed.  A change that keeps every report byte-identical prints
the same lines as its parent; ``diff`` of the two outputs names each report
that moved.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
RADII = tuple(0.5 + 2.5 * k / 1023 for k in range(1024))
SEEDS = (901, 902)
PASSES = 16
SUITES = ("exterior", "dirac", "robin")
FORMATS = ("csv", "json")
TRANSVERSE_SEEDS = (1, 2, 3, 4)
TRANSVERSE_SHORT_GRID = (9.0, 20.25, 81.0, 729.0, 6561.0)


def seeded_passes(seed: int, count: int) -> list[tuple[float, int]]:
    """The first ``count`` (radius, config seed) passes of a spectra seed."""
    rng = random.Random(seed)
    order = rng.sample(range(len(RADII)), len(RADII))
    return [(RADII[k], rng.randrange(2**32)) for k in order][:count]


def digest(document: dict, out: Path) -> str:
    """sha256 of the report that the config ``document`` writes."""
    # Imported here, so that scripts/ab_spectra.py, which loads two trees
    # under names of its own, can take the pass draw from this module.
    from mitbag.cli import config_from_dict, run_suite

    run_suite(config_from_dict({**document, "output_path": str(out)}))
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        for path in sorted(GOLDEN.glob("config_R*.json")):
            document = json.loads(path.read_text())
            for fmt in FORMATS:
                print(f"{digest({**document, 'format': fmt}, out)}  golden {path.name} {fmt}")
        for seed in SEEDS:
            for index, (radius, config_seed) in enumerate(seeded_passes(seed, PASSES)):
                for suite in SUITES:
                    document = {
                        "suite": suite,
                        "geometry": {"variant": "ball_interior", "R": radius},
                        "seed": config_seed,
                    }
                    for fmt in FORMATS:
                        print(f"{digest({**document, 'format': fmt}, out)}  seed {seed} pass {index} R={radius!r} "
                              f"{suite} {fmt}")
        golden_r1 = json.loads((GOLDEN / "config_R1.json").read_text())
        for config_seed in TRANSVERSE_SEEDS:
            document = {**golden_r1, "suite": "transverse", "seed": config_seed}
            for fmt in FORMATS:
                print(f"{digest({**document, 'format': fmt}, out)}  golden config_R1.json transverse "
                      f"seed {config_seed} {fmt}")
        document = {**golden_r1, "suite": "transverse", "m_grid": list(TRANSVERSE_SHORT_GRID)}
        for fmt in FORMATS:
            print(f"{digest({**document, 'format': fmt}, out)}  golden config_R1.json transverse "
                  f"m_grid {list(TRANSVERSE_SHORT_GRID)} {fmt}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

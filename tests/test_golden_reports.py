"""Golden reports: the full seeded `report_to_json` of four batches.

Each case pins every byte of one batch's JSON report: the counts, the
config echo and each counterexample kept with its verdict digest.  So a
change to sampling, screening, repair, the exact re-check or the verify
chain that moves any seeded output shows up here.  The three repair
cases are also run on two workers, which pickles their ``RepairPlan``
to the pool, and must print the same bytes as the serial run.

Regenerate with ``PYTHONPATH=src python tests/test_golden_reports.py``,
and only for a change that is meant to move seeded output.
"""
import json
from pathlib import Path

import pytest

from treetp import GenConfig, batch_verify, make_pitchfork, make_star, report_to_json

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_reports.json"

# name -> (GenConfig keywords, trials); every counterexample is kept
CASES = {
    "star4-reject-s7": (dict(tree=make_star(4, 1), seed=7), 4),
    "star5-aug-repair-s13": (
        dict(tree=make_star(5, 1), seed=13, augmented=True, repair=True, max_attempts=20),
        3,
    ),
    "pitchfork-sym-repair-s31": (
        dict(tree=make_pitchfork(), seed=31, symmetric=True, repair=True, max_attempts=25),
        2,
    ),
    "star5-repair-s808": (dict(tree=make_star(5, 1), seed=808, repair=True), 3),
}

REPAIR_CASES = [name for name, (kwargs, _) in CASES.items() if kwargs.get("repair")]


def observe(name: str, workers: int = 1) -> str:
    kwargs, trials = CASES[name]
    return report_to_json(batch_verify(GenConfig(**kwargs), trials, keep=trials, workers=workers))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_pinned(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert observe(name) == json.dumps(golden[name], indent=2)


@pytest.mark.parametrize("name", REPAIR_CASES)
def test_two_workers_print_the_serial_report(name):
    assert observe(name, workers=2) == observe(name)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: json.loads(observe(name)) for name in CASES}, indent=1) + "\n"
    )

"""Golden candidates: exact seeded generator output, in every environment.

Each case pins the matrix and the attempt count that `_generate_slot`
returns for one (tree, seed, slot, mode).  Any change to sampling order,
the screening objective or the repair accept/reject rule shows up here.
The two cases with entries up to 2**21 exceed the int64 guard for 3x3
minors, so they pin the exact arithmetic beyond it; the two repair cases
with entries up to 2**40 do the same for the 4x4 and 5x5 closed forms,
whose products exceed int64 by far.  Each ``-big`` case checks that its
pinned matrix is beyond the guard.  The pitchfork cases start repair from
a template (``conjecture_lab._template_start``).
"""
import pytest

from treetp import GenConfig, make_pitchfork, make_star, matrix_to_text, parse_tree_spec
from treetp._kernels import int64_screen_safe, minor_plan
from treetp.conjecture_lab import _generate_slot

GOLDEN = {
    "star4-reject-s11": (
        dict(tree=make_star(4, 1), seed=11),
        "128 81 133 73\n97 97 98 48\n37 12 107 16\n95 52 21 137\n",
        80995,
    ),
    "star5-aug-repair-s13": (
        dict(tree=make_star(5, 1), seed=13, augmented=True, repair=True, max_attempts=20),
        "136 130 69 112 44\n41 132 17 26 11\n89 30 136 9 26\n102 46 31 133 31\n"
        "131 95 42 11 53\n",
        1,
    ),
    "star4-sym-reject-s7": (
        dict(tree=make_star(4, 1), seed=7, symmetric=True),
        "55 67 66 66\n67 144 61 39\n66 61 101 59\n66 39 59 117\n",
        641,
    ),
    "pitchfork-sym-repair-s31": (
        dict(tree=make_pitchfork(), seed=31, symmetric=True, repair=True, max_attempts=25),
        "4 4 2 10 13\n4 102 1 7 3\n2 1 101 4 3\n10 7 4 28 48\n13 3 3 48 137\n",
        2,
    ),
    "star5-repair-s808": (
        dict(tree=make_star(5, 1), seed=808, repair=True, max_attempts=50),
        "48 46 85 70 56\n51 132 38 8 53\n14 12 147 17 9\n70 67 36 134 62\n58 28 52 21 131\n",
        1,
    ),
    "star6-aug-repair-s61": (
        dict(tree=make_star(6, 1), seed=61, augmented=True, repair=True, max_attempts=50),
        "44 52 59 24 75 69\n80 137 107 23 81 114\n40 5 136 17 23 36\n"
        "67 76 41 124 78 50\n15 14 15 1 134 21\n22 25 23 9 36 68\n",
        1,
    ),
    "star4-repair-big": (
        dict(tree=make_star(4, 1), seed=3, entry_range=(1, 2**21), repair=True, max_attempts=50),
        "1344251 1156174 1183592 424157\n1083995 1658680 884231 303250\n"
        "1123169 707085 1751896 213489\n1372656 793856 457566 687620\n",
        1,
    ),
    "star3c2-reject-big": (
        dict(tree=parse_tree_spec("star:3:2"), seed=5, entry_range=(1, 2**21)),
        "571836 1961888 299750\n169822 658204 1011036\n178222 722614 1742487\n",
        40,
    ),
    "star6-aug-repair-big": (
        dict(
            tree=make_star(6, 1), seed=61, entry_range=(1, 2**40), augmented=True, repair=True,
            max_attempts=50,
        ),
        "608490594866 393894123906 1061722178410 724159214615 959823872044 720369643860\n"
        "790463954206 822627348663 1004343223910 820201318341 768063811958 51315209391\n"
        "99016072939 10374072482 999693610191 67328786032 87561448208 65286902269\n"
        "620971586766 240498117844 541705136200 1093557816357 288566984555 698630852901\n"
        "239394409708 96297572010 370291939857 270591035108 927910412676 267907930760\n"
        "391955516428 246474871124 563012112863 392500058951 477852775774 927766732451\n",
        1,
    ),
    "pitchfork-sym-repair-big": (
        dict(
            tree=make_pitchfork(), seed=31, entry_range=(1, 2**40), symmetric=True, repair=True,
            max_attempts=25,
        ),
        "17620378650 26758468256 36006032350 21144454380 55712146723\n"
        "26758468256 262117627047 34732702844 7048151460 18147564642\n"
        "36006032350 34732702844 754458691306 7048151460 14096302920\n"
        "21144454380 7048151460 7048151460 31716681570 88101893250\n"
        "55712146723 18147564642 14096302920 88101893250 449256869172\n",
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_slot_zero_is_pinned(name):
    kwargs, text, attempts = GOLDEN[name]
    matrix, used = _generate_slot(GenConfig(**kwargs), 0)
    assert matrix is not None
    assert (matrix_to_text(matrix), used) == (text, attempts)


@pytest.mark.parametrize("name", [name for name in sorted(GOLDEN) if name.endswith("-big")])
def test_big_cases_pass_the_int64_guard(name):
    # each pinned matrix has an entry too large for the plan's largest
    # minors to fit int64, so the case does pin the exact arithmetic
    kwargs, text, _ = GOLDEN[name]
    cfg = GenConfig(**kwargs)
    k = max(len(rows) for rows, _ in minor_plan(cfg.tree, cfg.augmented))
    assert not int64_screen_safe(k, max(int(x) for x in text.split()))


# the later slots the benchmark's repair workloads run every round
# (perfbench/run.py: slots 0-3 of seed 61 and 0-2 of seed 31); slot 0 of
# each is pinned in GOLDEN above
BENCHMARK_SLOTS = {
    ("star6-aug-repair-s61", 1): (
        "124 71 118 112 47 64\n121 145 86 51 20 53\n26 6 100 11 6 8\n"
        "55 30 39 87 15 12\n108 58 27 82 68 43\n82 20 17 17 21 128\n",
        1,
    ),
    ("star6-aug-repair-s61", 2): (
        "126 56 61 138 51 80\n116 139 41 95 25 41\n125 39 130 119 36 33\n"
        "114 44 49 148 22 56\n101 23 39 107 146 45\n70 20 2 68 12 118\n",
        1,
    ),
    ("star6-aug-repair-s61", 3): (
        "65 46 85 53 95 51\n82 139 100 64 72 60\n44 7 129 24 52 18\n"
        "34 20 5 98 36 24\n58 22 43 47 127 28\n108 68 124 43 149 137\n",
        1,
    ),
    ("pitchfork-sym-repair-s31", 1): (
        "3 6 2 8 10\n6 107 2 4 4\n2 2 13 4 4\n8 4 4 26 40\n10 4 4 40 99\n",
        1,
    ),
    ("pitchfork-sym-repair-s31", 2): (
        "3 8 1 5 7\n8 145 1 1 1\n1 1 42 1 1\n5 1 1 11 21\n7 1 1 21 90\n",
        2,
    ),
}


@pytest.mark.parametrize("name, slot", sorted(BENCHMARK_SLOTS), ids=lambda v: str(v))
def test_benchmark_repair_slots_are_pinned(name, slot):
    kwargs = GOLDEN[name][0]
    text, attempts = BENCHMARK_SLOTS[name, slot]
    matrix, used = _generate_slot(GenConfig(**kwargs), slot)
    assert matrix is not None
    assert (matrix_to_text(matrix), used) == (text, attempts)

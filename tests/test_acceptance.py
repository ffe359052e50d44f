"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Rejection screening and
repair each generate one candidate up front, so no criterion timing
includes a first call.
"""
import random
import time

import pytest

from treetp import (
    ExactMatrix,
    GenConfig,
    SylvesterInapplicableError,
    adjugate,
    batch_verify,
    char_poly,
    check_adjoint_conclusion,
    det,
    is_tp,
    make_star,
    minor,
    smallest_eig_vector,
    sylvester_rhs,
    test_conjecture as run_conjecture,
)
from treetp.conjecture_lab import _generate_slot
from treetp.fixtures import (
    PITCHFORK_COUNTEREXAMPLE,
    STAR4_EXAMPLE,
    STAR5_COUNTEREXAMPLE,
)

from conftest import bidiagonal_tp, random_int_matrix, random_rational_matrix


def report(number: int, ok: bool, detail: str, elapsed: float, budget: float):
    within = elapsed <= budget
    status = "PASS" if (ok and within) else "FAIL"
    print(f"criterion {number}: {status}  ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} failed: {detail}"
    assert within, f"criterion {number} exceeded runtime budget: {elapsed:.2f}s > {budget}s"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # one rejection slot and one repair slot, outside the timed criteria
    cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=0)
    _generate_slot(cfg, 0)
    cfg5 = GenConfig(
        tree=make_star(5, 1), entry_range=(1, 150), seed=0, augmented=True,
        repair=True, max_attempts=5,
    )
    _generate_slot(cfg5, 0)


def test_criterion_1_adjugate_4x4_exact():
    t0 = time.perf_counter()
    got = adjugate(STAR4_EXAMPLE.matrix)
    ok = got == STAR4_EXAMPLE.expected_adjugate
    report(1, ok, "all 16 adjugate entries integer-exact", time.perf_counter() - t0, 1.0)


def test_criterion_2_adjugate_5x5_exact_and_mismatch_set():
    t0 = time.perf_counter()
    got = adjugate(STAR5_COUNTEREXAMPLE.matrix)
    exact = got == STAR5_COUNTEREXAMPLE.expected_adjugate
    check = check_adjoint_conclusion(STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree)
    mismatch = check.mismatches == ((3, 1), (3, 3))
    report(
        2,
        exact and mismatch,
        f"25 entries exact, mismatch set {set(check.mismatches)}",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_3_spectral_reproduction():
    t0 = time.perf_counter()
    failures = []

    s4 = smallest_eig_vector(STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree)
    if not (s4.smallest.is_real and s4.smallest.is_simple):
        failures.append("4x4 smallest not real simple")
    if abs(s4.smallest.estimate.real - 2.5) > 0.05:
        failures.append("4x4 eigenvalue off")
    dev4 = max(
        abs(a - b)
        for a, b in zip(s4.eigenvector_last1, STAR4_EXAMPLE.expected_eigenvector_last1)
    )
    if dev4 > 0.01:
        failures.append(f"4x4 eigenvector deviation {dev4:.4f}")
    target = 83.6571 + 4.24099j
    rel = min(abs(z - target) / abs(target) for z in s4.full_spectrum)
    if rel > 5e-4:
        failures.append(f"4x4 complex pair rel err {rel:.2e}")

    s5 = smallest_eig_vector(STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree)
    if abs(s5.smallest.estimate.real - (-6.16)) > 0.01:
        failures.append("5x5 star eigenvalue off")
    dev5 = max(
        abs(a - b)
        for a, b in zip(s5.eigenvector_last1, STAR5_COUNTEREXAMPLE.expected_eigenvector_last1)
    )
    if dev5 > 0.01:
        failures.append(f"5x5 star eigenvector deviation {dev5:.4f}")
    if s5.signed_ok is not False:
        failures.append("5x5 star signing verdict wrong")

    sp = smallest_eig_vector(PITCHFORK_COUNTEREXAMPLE.matrix, PITCHFORK_COUNTEREXAMPLE.tree)
    if abs(sp.smallest.estimate.real - (-2.54)) > 0.01:
        failures.append("pitchfork eigenvalue off")
    devp = max(
        abs(a - b)
        for a, b in zip(sp.eigenvector_last1, PITCHFORK_COUNTEREXAMPLE.expected_eigenvector_last1)
    )
    if devp > 0.01:
        failures.append(f"pitchfork eigenvector deviation {devp:.4f}")
    if sp.signed_ok is not False:
        failures.append("pitchfork signing verdict wrong")

    report(
        3,
        not failures,
        "; ".join(failures) if failures else "three spectral reproductions within tolerance",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_4_star4_property_suite():
    t0 = time.perf_counter()
    tree = make_star(4, 1)
    cfg = GenConfig(tree=tree, entry_range=(1, 150), seed=20240809)
    bad = 0
    for slot in range(1000):
        m, _ = _generate_slot(cfg, slot)
        assert m is not None, "generation exhausted"
        adj_check = check_adjoint_conclusion(m, tree)
        summary = smallest_eig_vector(m, tree)
        unit = summary.eigenvector_unit
        signs_ok = (
            summary.signed_ok is True
            and unit[0] > 0
            and all(x < 0 for x in unit[1:])
        )
        minors_ok = (
            minor(m, (3, 1, 4), (2, 1, 4)) < 0
            and minor(m, (4, 1, 3), (2, 1, 3)) < 0
            and minor(m, (4, 1, 2), (3, 1, 2)) < 0
        )
        if not (adj_check.ok and signs_ok and minors_ok):
            bad += 1
    report(
        4,
        bad == 0,
        "1000/1000 star-4 instances satisfy adjugate pattern, signing and permuted-minor signs",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_5_augmented_star_property_suite():
    t0 = time.perf_counter()
    bad = 0
    for n, count, seed in ((5, 200, 51), (6, 100, 61)):
        tree = make_star(n, 1)
        cfg = GenConfig(
            tree=tree, entry_range=(1, 150), seed=seed, augmented=True,
            repair=True, max_attempts=50,
        )
        for slot in range(count):
            m, _ = _generate_slot(cfg, slot)
            assert m is not None, f"augmented star-{n} generation exhausted"
            summary = smallest_eig_vector(m, tree)
            if not (
                summary.smallest.is_real
                and summary.smallest.is_simple
                and summary.signed_ok is True
            ):
                bad += 1
    report(
        5,
        bad == 0,
        "300/300 augmented star instances have real simple smallest eigenvalue, signed eigenvector",
        time.perf_counter() - t0,
        600.0,
    )


def test_criterion_6_identity_suites():
    t0 = time.perf_counter()
    rng = random.Random(606)

    sylvester_ok = 0
    attempts = 0
    while sylvester_ok < 500:
        attempts += 1
        assert attempts < 5000, "could not find enough Sylvester instances"
        n = rng.choice((4, 5, 6))
        A = random_rational_matrix(rng, n, num=8, den=4)
        size = rng.randint(2, n)
        alpha = tuple(rng.sample(range(1, n + 1), size))
        beta = tuple(rng.sample(range(1, n + 1), size))
        try:
            value = sylvester_rhs(A, alpha, beta)
        except SylvesterInapplicableError:
            continue
        assert value == minor(A, alpha, beta)
        sylvester_ok += 1

    for k in range(500):
        n = 2 + (k % 4)
        A = random_int_matrix(rng, n, lo=-20, hi=20)
        adj = adjugate(A)
        scaled_eye = ExactMatrix.identity(n).scaled(det(A))
        assert A * adj == scaled_eye and adj * A == scaled_eye

    for k in range(200):
        n = 2 + (k % 5)
        A = random_int_matrix(rng, n, lo=-10, hi=10)
        p = char_poly(A)
        acc = ExactMatrix.identity(n).scaled(p.coeffs[-1])
        for c in reversed(p.coeffs[:-1]):
            acc = acc * A
            acc = ExactMatrix(
                [[acc.rows[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
            )
        assert all(x == 0 for row in acc.rows for x in row)

    report(
        6,
        True,
        "500 Sylvester + 500 adjugate + 200 Cayley-Hamilton identities exact",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_7_tp_criterion_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(707)
    for _ in range(1000):
        A = random_int_matrix(rng, 4, lo=1, hi=100)
        assert is_tp(A, "all-minors").is_tp == is_tp(A, "initial-minors").is_tp
    for _ in range(1000):
        A = random_int_matrix(rng, 5, lo=1, hi=100)
        assert is_tp(A, "all-minors").is_tp == is_tp(A, "initial-minors").is_tp
    accepted = 0
    for n in (2, 3, 4, 5):
        for _ in range(5):
            A = bidiagonal_tp(n, rng)
            assert is_tp(A, "all-minors").is_tp
            assert is_tp(A, "initial-minors").is_tp
            accepted += 1
    report(
        7,
        True,
        f"2000 random verdicts agree; {accepted} bidiagonal-product matrices accepted by both",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_8_counterexample_reverification():
    t0 = time.perf_counter()
    failures = []

    v4 = run_conjecture(STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree)
    if v4.is_counterexample or not v4.hypothesis.holds:
        failures.append("4x4 should not be a counterexample")

    v5 = run_conjecture(STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree)
    if not (
        v5.is_counterexample
        and v5.hypothesis.holds
        and not v5.adjoint.ok
        and v5.adjoint.mismatches == ((3, 1), (3, 3))
        and v5.eigenvector_signed is False
        and v5.summary.signing.violated_edge == (1, 3)
    ):
        failures.append("5x5 star witness chain wrong")

    vp = run_conjecture(PITCHFORK_COUNTEREXAMPLE.matrix, PITCHFORK_COUNTEREXAMPLE.tree)
    if not (
        vp.is_counterexample
        and vp.hypothesis.holds
        and not vp.adjoint.ok
        and vp.eigenvector_signed is False
        and vp.summary.signing.violated_edge == (4, 5)
    ):
        failures.append("pitchfork witness chain wrong")

    report(
        8,
        not failures,
        "; ".join(failures) if failures else "both counterexamples re-verify with exact witness chains",
        time.perf_counter() - t0,
        1.0,
    )


def test_note_random_star5_discovery_rate():
    # reported, not asserted: how often plain star-5 generation breaks the
    # predicted signing
    cfg = GenConfig(
        tree=make_star(5, 1), entry_range=(1, 150), seed=808, repair=True,
        max_attempts=30,
    )
    report_batch = batch_verify(cfg, 30)
    print(
        f"note: {report_batch.counterexamples}/{report_batch.generated} random star-5 "
        "instances violate the predicted signing (statistical, informational only)"
    )
    assert report_batch.generated == 30

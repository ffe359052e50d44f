import json
from dataclasses import replace

import pytest

from treetp import (
    GenConfig,
    LabelledTree,
    _kernels,
    batch_verify,
    conjecture_lab,
    gen_candidate,
    is_t_tp,
    make_pitchfork,
    make_star,
    matrix_to_text,
    parse_tree_spec,
    pendant_deletion_hypothesis,
    report_from_json,
    report_to_json,
    sweep_trees,
    test_conjecture as run_conjecture,
)
from treetp.fixtures import (
    PITCHFORK_COUNTEREXAMPLE,
    STAR4_EXAMPLE,
    STAR5_COUNTEREXAMPLE,
)
from treetp.positivity import HypothesisReport, TtpReport


class TestGenConfig:
    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            GenConfig(tree=make_star(4, 1), entry_range=(0, 10))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            GenConfig(tree=make_star(4, 1), entry_range=(5, 4))

    def test_rejects_range_beyond_int64(self):
        GenConfig(tree=make_star(4, 1), entry_range=(1, 2**63 - 1))
        with pytest.raises(ValueError, match=r"at or below 2\*\*63 - 1"):
            GenConfig(tree=make_star(4, 1), entry_range=(1, 2**63))
        with pytest.raises(ValueError, match=r"at or below 2\*\*63 - 1"):
            GenConfig(tree=make_star(4, 1), entry_range=(1, 2**70))

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            GenConfig(tree=make_star(4, 1), max_attempts=0)

    def test_attempt_defaults(self):
        assert GenConfig(tree=make_star(4, 1), repair=True).budget == 1000
        assert GenConfig(tree=make_star(4, 1)).budget == 2_000_000
        assert GenConfig(tree=make_star(4, 1), repair=True, max_attempts=7).budget == 7

    def test_budget_follows_replace(self):
        # the default is resolved where it is spent, so switching the mode
        # with `replace` switches the default with it
        tree = make_star(4, 1)
        assert replace(GenConfig(tree), repair=True).budget == 1000
        assert replace(GenConfig(tree, max_attempts=7), repair=True).budget == 7


class TestGenCandidate:
    def test_deterministic(self):
        cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=314)
        assert gen_candidate(cfg) == gen_candidate(cfg)

    def test_postcondition_t_tp(self):
        cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=42)
        m = gen_candidate(cfg)
        assert m is not None
        assert is_t_tp(m, cfg.tree).is_t_tp

    def test_star4_at_published_range_succeeds(self):
        cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=1)
        assert gen_candidate(cfg) is not None

    def test_exhausted_returns_none(self):
        cfg = GenConfig(tree=make_star(5, 1), entry_range=(1, 150), seed=1, max_attempts=50)
        assert gen_candidate(cfg) is None

    def test_augmented_postcondition(self):
        cfg = GenConfig(
            tree=make_star(5, 1), entry_range=(1, 150), seed=8, augmented=True,
            repair=True, max_attempts=20,
        )
        m = gen_candidate(cfg)
        assert m is not None
        assert pendant_deletion_hypothesis(m, cfg.tree).holds

    def test_symmetric_mode(self):
        cfg = GenConfig(
            tree=make_pitchfork(), entry_range=(1, 150), seed=9, symmetric=True,
            repair=True, max_attempts=20,
        )
        m = gen_candidate(cfg)
        assert m is not None
        assert m.is_symmetric()
        assert is_t_tp(m, cfg.tree).is_t_tp

    def test_different_seeds_differ(self):
        a = gen_candidate(GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=1))
        b = gen_candidate(GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=2))
        assert a != b


class TestTestConjecture:
    def test_worked_star4_no_counterexample(self):
        v = run_conjecture(STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree)
        assert v.hypothesis.holds
        assert v.conclusion_ok
        assert not v.is_counterexample

    def test_worked_star5_counterexample(self):
        v = run_conjecture(STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree)
        assert v.hypothesis.holds
        assert not v.adjoint.ok
        assert v.is_counterexample

    def test_worked_pitchfork_counterexample(self):
        v = run_conjecture(PITCHFORK_COUNTEREXAMPLE.matrix, PITCHFORK_COUNTEREXAMPLE.tree)
        assert v.is_counterexample

    def test_counterexample_implication(self):
        # counterexample => hypotheses hold and the exact adjugate check fails
        for fixture in (STAR4_EXAMPLE, STAR5_COUNTEREXAMPLE, PITCHFORK_COUNTEREXAMPLE):
            v = run_conjecture(fixture.matrix, fixture.tree)
            if v.is_counterexample:
                assert v.hypothesis.holds
                assert not v.adjoint.ok

    def test_conclusion_reads_no_float(self):
        # forged float fields cannot turn the exact check's answer around
        v = run_conjecture(STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree)
        assert v.hypothesis.holds and v.adjoint.ok
        complex_smallest = replace(v.smallest, is_real=False, is_simple=None, interval=None)
        forged = replace(v, summary=replace(v.summary, smallest=complex_smallest, signed_ok=False))
        assert forged.conclusion_ok and not forged.is_counterexample
        failed = replace(v, summary=replace(v.summary, adjoint=replace(v.adjoint, ok=False)))
        assert not failed.conclusion_ok and failed.is_counterexample

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_conjecture(STAR4_EXAMPLE.matrix, make_star(5, 1))

    @pytest.mark.parametrize("augmented", [False, True])
    def test_dimension_mismatch_message(self, augmented):
        # the hypothesis check raises it, before any spectral work
        with pytest.raises(ValueError) as exc:
            run_conjecture(STAR4_EXAMPLE.matrix, make_star(5, 1), augmented)
        assert str(exc.value) == "matrix is 4x4 but tree has 5 vertices"


class TestBatchVerify:
    def test_star4_small_batch_clean(self):
        cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=7)
        report = batch_verify(cfg, 12)
        assert report.generated == 12
        assert report.hypothesis_pass == 12
        assert report.counterexamples == 0
        assert report.conclusion_pass == 12

    def test_augmented_star5_small_batch_clean(self):
        cfg = GenConfig(
            tree=make_star(5, 1), entry_range=(1, 150), seed=13, augmented=True,
            repair=True, max_attempts=30,
        )
        report = batch_verify(cfg, 8)
        assert report.generated == 8
        assert report.counterexamples == 0

    def test_plain_star5_finds_counterexamples(self):
        cfg = GenConfig(
            tree=make_star(5, 1), entry_range=(1, 150), seed=44, repair=True,
            max_attempts=30,
        )
        report = batch_verify(cfg, 25, keep=3)
        assert report.generated == 25
        assert report.counterexamples > 0
        assert 0 < len(report.exemplars) <= 3

    def test_stored_counterexamples_reverify(self):
        cfg = GenConfig(
            tree=make_star(5, 1), entry_range=(1, 150), seed=44, repair=True,
            max_attempts=30,
        )
        report = batch_verify(cfg, 20, keep=2)
        for ex in report.exemplars:
            v = run_conjecture(ex.matrix, cfg.tree, cfg.augmented)
            assert v.is_counterexample
            assert ex.verdict["counterexample"] is True

    def test_reproducible(self):
        cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=21)
        assert batch_verify(cfg, 6) == batch_verify(cfg, 6)

    def test_parallel_equals_serial(self):
        cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=22)
        serial = batch_verify(cfg, 6, keep=2, workers=1)
        parallel = batch_verify(cfg, 6, keep=2, workers=2)
        assert report_to_json(serial) == report_to_json(parallel)

    def test_exemplars_follow_slot_order(self):
        # each worker runs every workers-th slot; the merge puts them back
        cfg = GenConfig(
            tree=make_star(5, 1), entry_range=(1, 150), seed=44, repair=True,
            max_attempts=30,
        )
        slots = [conjecture_lab._generate_slot(cfg, s)[0] for s in range(6)]
        for workers in (1, 2):
            kept = [e.matrix for e in batch_verify(cfg, 6, keep=6, workers=workers).exemplars]
            assert len(kept) == 5
            assert kept == [m for m in slots if m in kept]

    def test_pool_never_larger_than_trials(self, monkeypatch):
        # a pool starts all max_workers processes at its first submit; this
        # fake records the size asked for and maps in-process instead
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(conjecture_lab, "ProcessPoolExecutor", InProcessPool)
        cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=22)
        serial = batch_verify(cfg, 3, keep=2, workers=1)
        for workers in (2, 3, 5000):
            assert report_to_json(batch_verify(cfg, 3, keep=2, workers=workers)) == report_to_json(serial)
        assert report_to_json(batch_verify(cfg, 1, workers=5000)) == report_to_json(batch_verify(cfg, 1))
        assert sizes == [2, 3, 3]

    def test_exhaustion_reflected_in_counts(self):
        cfg = GenConfig(tree=make_star(5, 1), entry_range=(1, 150), seed=3, max_attempts=40)
        report = batch_verify(cfg, 3)
        assert report.trials == 3
        assert report.generated == 0

    def test_symmetric_candidates_have_real_smallest(self):
        cfg = GenConfig(
            tree=make_pitchfork(), entry_range=(1, 150), seed=31, symmetric=True,
            repair=True, max_attempts=25,
        )
        report = batch_verify(cfg, 5, keep=5)
        assert report.generated == 5
        for ex in report.exemplars:
            assert ex.verdict["smallest"]["is_real"] is True

    def test_rejects_negative_trials(self):
        cfg = GenConfig(tree=make_star(3, 1), seed=1)
        with pytest.raises(ValueError, match="trials"):
            batch_verify(cfg, -2)
        assert batch_verify(cfg, 0).generated == 0

    def test_count_invariant(self):
        cfg = GenConfig(
            tree=make_star(5, 1), entry_range=(1, 150), seed=60, repair=True,
            max_attempts=30,
        )
        report = batch_verify(cfg, 10)
        assert report.conclusion_pass + report.counterexamples == report.hypothesis_pass


class TestReportSerialization:
    def test_round_trip_identity(self):
        cfg = GenConfig(
            tree=make_star(5, 1), entry_range=(1, 150), seed=44, repair=True,
            max_attempts=30,
        )
        report = batch_verify(cfg, 10, keep=2)
        text = report_to_json(report)
        again = report_from_json(text)
        assert again == report
        assert report_to_json(again) == text

    def test_schema_keys(self):
        cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=2)
        data = json.loads(report_to_json(batch_verify(cfg, 2)))
        assert set(data) == {
            "trials", "generated", "hypothesis_pass", "conclusion_pass",
            "counterexamples", "seed", "config", "exemplars",
        }
        assert data["config"]["tree_edges"] == [[1, 2], [1, 3], [1, 4]]

    @pytest.mark.parametrize(
        "counts",
        [
            {"hypothesis_pass": 1, "conclusion_pass": 1},  # hypothesis_pass != generated
            {"hypothesis_pass": 2, "conclusion_pass": 1},  # conclusion_pass != generated - 0
        ],
    )
    def test_rejects_counts_that_disagree(self, counts):
        cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=2)
        data = json.loads(report_to_json(batch_verify(cfg, 2)))
        assert (data["generated"], data["counterexamples"]) == (2, 0)
        data.update(counts)
        with pytest.raises(ValueError):
            report_from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "counts",
        [
            # each keeps hypothesis_pass and conclusion_pass as derived
            {"trials": 2, "generated": 5, "hypothesis_pass": 5, "conclusion_pass": 5},
            {"counterexamples": 3, "conclusion_pass": -1},
            {"trials": -1, "generated": 0, "hypothesis_pass": 0, "conclusion_pass": 0},
            {"exemplars": [{"matrix": "1 0\n0 1\n", "verdict": {}}]},
        ],
        ids=["generated-over-trials", "counterexamples-over-generated", "negative-trials",
             "exemplars-over-counterexamples"],
    )
    def test_rejects_counts_a_report_cannot_have(self, counts):
        cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=2)
        data = json.loads(report_to_json(batch_verify(cfg, 2)))
        assert (data["trials"], data["generated"], data["counterexamples"]) == (2, 2, 0)
        data.update(counts)
        with pytest.raises(ValueError):
            report_from_json(json.dumps(data))


class TestSweep:
    def test_sweep_n3_all_paths_clean(self):
        cfg = GenConfig(tree=make_star(3, 1), entry_range=(1, 60), seed=5, max_attempts=400_000)
        results = sweep_trees(3, cfg, trials_per_tree=2)
        assert len(results) == 3
        for tree, report in results:
            assert report.generated == 2
            assert report.counterexamples == 0

    def test_sweep_bad_n(self):
        cfg = GenConfig(tree=make_star(3, 1))
        with pytest.raises(ValueError):
            sweep_trees(8, cfg, 1)

    def test_sweep_distinct_streams(self):
        cfg = GenConfig(tree=make_star(3, 1), entry_range=(1, 60), seed=5, max_attempts=400_000)
        results = sweep_trees(3, cfg, trials_per_tree=1)
        trees = [t for t, _ in results]
        assert len({t.edges for t in trees}) == 3


class TestExactRecheck:
    """The generator's exact re-check, and what a slot returns when it fails."""

    # slot 0 with every other re-check forced to fail, recorded before the
    # two generation modes shared one re-check: (matrix, attempts)
    SECOND_HITS = {
        "star4-sym-reject-s7": (
            dict(tree=make_star(4, 1), seed=7, symmetric=True),
            "114 55 48 90\n55 81 1 34\n48 1 134 21\n90 34 21 107\n",
            2054,
        ),
        "star5-aug-repair-s13": (
            dict(tree=make_star(5, 1), seed=13, augmented=True, repair=True, max_attempts=20),
            "135 47 95 139 119\n132 124 30 26 106\n140 38 131 73 111\n30 2 21 139 21\n"
            "84 20 38 26 113\n",
            2,
        ),
    }

    @pytest.mark.parametrize("name", sorted(SECOND_HITS))
    def test_rejected_candidate_resumes_the_stream(self, monkeypatch, name):
        calls = []
        recheck = conjecture_lab._hypothesis_reports

        def every_other_fails(A, tree, augmented):
            calls.append(A)
            if len(calls) % 2:
                return HypothesisReport(TtpReport(False, ()), ())
            return recheck(A, tree, augmented)

        monkeypatch.setattr(conjecture_lab, "_hypothesis_reports", every_other_fails)
        kwargs, text, attempts = self.SECOND_HITS[name]
        matrix, used = conjecture_lab._generate_slot(GenConfig(**kwargs), 0)
        assert (matrix_to_text(matrix), used) == (text, attempts)
        assert len(calls) == 2 and calls[0] != matrix

    def test_repair_exhaustion_returns_the_budget(self):
        # every proposal rewrites an entry to 1, a no-op, and the all-ones
        # matrix fails every 2x2 minor, so no start can reach zero
        cfg = GenConfig(make_star(4, 1), entry_range=(1, 1), repair=True, max_attempts=2)
        assert conjecture_lab._generate_slot(cfg, 0) == (None, 2)
        report = batch_verify(cfg, 2)
        assert (report.generated, report.counterexamples, report.exemplars) == (0, 0, ())


class TestTemplateStart:
    """Repair on a tree with a 4-vertex path starts from a TP template."""

    @pytest.mark.parametrize("spec", ["path:4", "path:5"])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_template_alone_meets_the_path_hypothesis(self, spec, symmetric):
        cfg = GenConfig(parse_tree_spec(spec), seed=4, symmetric=symmetric, repair=True)
        layout = conjecture_lab._template_layout(cfg)
        assert layout == tuple(range(cfg.tree.n))
        rng = conjecture_lab._rng_for(cfg, 0, template=True)
        plan = _kernels.minor_plan(cfg.tree, False)
        for _ in range(20):
            a = conjecture_lab._template_start(cfg, layout, rng)
            assert min(map(min, a)) >= 1 and max(map(max, a)) <= 150
            assert _kernels.hypothesis_violations(a, plan) == 0
            assert not symmetric or a == [list(col) for col in zip(*a)]

    def test_off_path_vertices_copy_a_path_neighbour(self):
        # the path is 2-1-4-5; vertex 3 hangs from vertex 1 and copies 2,
        # so the path 3-1-4-5 keeps the template's order
        assert conjecture_lab._template_layout(GenConfig(make_pitchfork())) == (1, 0, 0, 2, 3)
        # a second off-path vertex further out steps on the same way
        spider = LabelledTree(7, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7)])
        assert conjecture_lab._template_layout(GenConfig(spider)) == (0, 1, 2, 3, 4, 1, 0)

    @pytest.mark.parametrize(
        "spec, symmetric",
        [("pitchfork", False), ("path:4", False), ("path:4", True), ("path:5", False),
         ("path:5", True)],
    )
    def test_repair_reaches_paths_and_the_pitchfork(self, spec, symmetric):
        cfg = GenConfig(parse_tree_spec(spec), seed=0, symmetric=symmetric, repair=True,
                        max_attempts=5)
        assert batch_verify(cfg, 5).generated == 5

    def test_stars_and_a_path_too_long_for_the_range_start_uniform(self):
        for spec in ("star:5", "star:6:3", "path:3", "path:6"):
            cfg = GenConfig(parse_tree_spec(spec), repair=True)
            assert conjecture_lab._template_layout(cfg) is None
        # every parameter 1 already gives C(10, 5) = 252 > 150 on path:6
        cfg = GenConfig(parse_tree_spec("path:6"), entry_range=(1, 252), repair=True)
        assert conjecture_lab._template_layout(cfg) == tuple(range(6))

    @pytest.mark.parametrize(
        "spec, entry_range", [("path:6", (1, 150)), ("pitchfork", (100, 150))]
    )
    def test_no_fitting_template_ends_within_the_budget(self, spec, entry_range):
        cfg = GenConfig(parse_tree_spec(spec), entry_range=entry_range, seed=5, repair=True,
                        max_attempts=2)
        layout = conjecture_lab._template_layout(cfg)
        if layout is not None:  # a layout, but every draw has an entry below lo
            rng = conjecture_lab._rng_for(cfg, 0, template=True)
            assert conjecture_lab._template_start(cfg, layout, rng) is None
        matrix, used = conjecture_lab._generate_slot(cfg, 0)
        assert used == 2 if matrix is None else 1 <= used <= 2

    def test_a_wide_range_scales_the_template(self):
        cfg = GenConfig(parse_tree_spec("path:4"), entry_range=(2**20, 2**40), repair=True)
        rng = conjecture_lab._rng_for(cfg, 0, template=True)
        a = conjecture_lab._template_start(cfg, conjecture_lab._template_layout(cfg), rng)
        assert 2**20 <= min(map(min, a)) and 2**37 < max(map(max, a)) <= 2**38
        assert _kernels.hypothesis_violations(a, _kernels.minor_plan(cfg.tree, False)) == 0

    def test_pitchfork_report_is_the_same_on_two_workers(self):
        cfg = GenConfig(make_pitchfork(), seed=8, repair=True, max_attempts=5)
        serial = batch_verify(cfg, 4, keep=4)
        assert serial.generated == 4
        assert report_to_json(batch_verify(cfg, 4, keep=4, workers=2)) == report_to_json(serial)

    @pytest.mark.parametrize("symmetric, least", [(False, 110), (True, 120)])
    def test_reach_on_every_tree_of_five_vertices(self, symmetric, least):
        cfg = GenConfig(make_star(5), seed=3, symmetric=symmetric, repair=True, max_attempts=3)
        assert sum(report.generated for _, report in sweep_trees(5, cfg, 1)) >= least

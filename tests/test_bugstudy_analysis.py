"""Tests for the bug-study dataset/analysis and the figure helpers."""

import pytest

from repro.analysis import (
    figure5_search_orders,
    figure6_pruning_counts,
    table1_feature_matrix,
)
from repro.bugstudy import (
    Reproducibility,
    RootCause,
    Symptom,
    build_dataset,
    build_review,
    finding1_sensor_bug_share,
    finding2_reproducibility,
    finding3_severity,
    summarize,
)


class TestBugStudyDataset:
    def test_review_bookkeeping_matches_paper(self):
        review = build_review()
        assert review.total_reviewed == 394
        assert review.ardupilot_reports + review.px4_reports == 394
        assert review.excluded_tooling == 29
        assert review.excluded_duplicates_or_unclear == 150
        assert review.analysed_count == 215

    def test_dataset_has_215_records_with_44_sensor_bugs(self):
        records = build_dataset()
        assert len(records) == 215
        sensor = [r for r in records if r.root_cause == RootCause.SENSOR]
        assert len(sensor) == 44
        assert all(record.sensor_type is not None for record in sensor)

    def test_bug_ids_are_unique(self):
        records = build_dataset()
        assert len({record.bug_id for record in records}) == len(records)


class TestFindings:
    def test_finding1_shares(self):
        shares = finding1_sensor_bug_share()
        assert shares["sensor_share_of_all_bugs"] == pytest.approx(0.20, abs=0.015)
        assert shares["semantic_share_of_all_bugs"] == pytest.approx(0.68, abs=0.015)
        assert shares["sensor_share_of_serious_bugs"] == pytest.approx(0.40, abs=0.03)

    def test_finding2_default_reproducibility(self):
        finding = finding2_reproducibility()
        assert finding["sensor_bug_count"] == 44
        assert finding["default_reproducible_share"] == pytest.approx(0.47, abs=0.02)

    def test_finding3_severity(self):
        finding = finding3_severity()
        assert finding["sensor_serious_share"] == pytest.approx(0.34, abs=0.02)
        assert finding["semantic_asymptomatic_share"] == pytest.approx(0.90, abs=0.02)

    def test_summary_figure_rows(self):
        summary = summarize()
        assert summary.total_bugs == 215
        assert dict(summary.figure3a_rows())["sensor"] == 44
        assert sum(count for _, count in summary.figure3b_rows()) == 44
        assert sum(count for _, count in summary.figure3c_rows()) == 44


class TestAnalysisHelpers:
    def test_figure5_orders_differ_by_strategy(self):
        orders = figure5_search_orders()
        assert set(orders) == {"depth-first", "breadth-first", "sabre"}
        assert orders["depth-first"][0] == "<no faults>"
        # DFS starts at the last time step, BFS at the first, SABRE at the
        # first mode transition.
        assert "t5" in orders["depth-first"][1]
        assert "t1" in orders["breadth-first"][1]
        assert "t1" in orders["sabre"][0]
        assert orders["depth-first"] != orders["breadth-first"]

    def test_figure5_sabre_row_is_the_seeded_first_pass(self):
        # Transitions t1, t2 and t4 with a 1 s quantum seed t1..t5; each
        # time gets the singletons, barometer first, then the pair.
        expected = [
            scenario
            for time in range(1, 6)
            for scenario in (
                f"barometer@t{time}",
                f"gps@t{time}",
                f"barometer@t{time}; gps@t{time}",
            )
        ]
        assert figure5_search_orders()["sabre"] == expected

    def test_figure5_sabre_row_stays_inside_the_mission(self):
        row = figure5_search_orders(time_steps=4)["sabre"]
        assert len(row) == 15
        assert row[:12] == figure5_search_orders()["sabre"][:12]
        assert "t5" not in " ".join(row)

    def test_figure6_counts_include_paper_example(self):
        rows = figure6_pruning_counts()
        assert (3, 21, 5) in rows
        for _, unpruned, pruned in rows:
            assert pruned <= unpruned

    def test_table1_matrix_matches_paper(self):
        rows = {row[0]: row[1:] for row in table1_feature_matrix()}
        assert rows["avis"] == ("yes", "yes", "yes")
        assert rows["stratified-bfi"] == ("no", "yes", "yes")
        assert rows["bfi"] == ("no", "yes", "no")
        assert rows["random"] == ("no", "no", "yes")

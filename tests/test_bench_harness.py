"""Artefact I/O and regression-gate logic of :mod:`repro.bench`.

Only the pure parts — nothing here times a simulation.  The committed
``BENCH_*.json`` recordings themselves are exercised end-to-end by the
CI ``bench-smoke`` job (``python -m repro.bench --smoke --check``).
"""

import json

from repro.bench import (BENCH_SCHEMA_VERSION, REGRESSION_TOLERANCE,
                         ROW_TOLERANCE, check_against_baseline,
                         merge_mode_payload)


def baseline(vector_norm=8.0, reference_norm=1.0, sweep_norm=1.5):
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "modes": {
            "smoke": {
                "calibration": {"loops_per_s": 1.0e7},
                "unit": {"hot_loop": {"reference_norm": reference_norm,
                                      "vector_norm": vector_norm,
                                      "vector_acc_per_s": 2.0e6}},
                "sweep": {"reference_norm": sweep_norm,
                          "vector_norm": sweep_norm,
                          "vector_cells_per_s": 1.6},
            },
        },
    }


def unit_row(vector=8.0, reference=1.0, **extra):
    return {"hot_loop": {"vector_norm": vector, "reference_norm": reference,
                         **extra}}


class TestCheckAgainstBaseline:
    def test_within_tolerance_passes(self):
        fresh = unit_row(vector=8.0 * REGRESSION_TOLERANCE + 0.01,
                         reference=REGRESSION_TOLERANCE + 0.01)
        assert check_against_baseline(baseline(), "smoke", fresh,
                                      None) == []

    def test_vector_regression_reported(self):
        fresh = unit_row(vector=8.0 * REGRESSION_TOLERANCE - 0.01)
        problems = check_against_baseline(baseline(), "smoke", fresh,
                                          None)
        assert len(problems) == 1
        assert "hot_loop" in problems[0] and "vector" in problems[0]

    def test_reference_regression_reported(self):
        """A slower reference kernel fails too, even though it raises
        the vector/reference ratio."""
        fresh = unit_row(reference=REGRESSION_TOLERANCE - 0.01)
        problems = check_against_baseline(baseline(), "smoke", fresh,
                                          None)
        assert len(problems) == 1
        assert "reference" in problems[0]

    def test_equal_slowdown_of_both_kernels_reported(self):
        """The old ratio gate let this pass: both kernels 30 % slower."""
        slow = 1 / 1.3
        fresh = unit_row(vector=8.0 * slow, reference=slow)
        problems = check_against_baseline(baseline(), "smoke", fresh,
                                          None)
        assert len(problems) == 2

    def test_gate_is_ratio_not_absolute_throughput(self):
        """A slower machine (lower acc/s, and a calibration loop slowed
        in proportion, so the same normalised figures) must pass: the
        gate reads throughput as a ratio to the calibration rate."""
        fresh = unit_row(vector_acc_per_s=1.0)
        assert check_against_baseline(baseline(), "smoke", fresh,
                                      None) == []

    def test_sweep_regression_reported(self):
        fresh_sweep = {"reference_norm": 1.5,
                       "vector_norm": 1.5 * REGRESSION_TOLERANCE - 0.01}
        problems = check_against_baseline(baseline(), "smoke", {},
                                          fresh_sweep)
        assert len(problems) == 1
        assert "sweep" in problems[0]

    def test_first_recording_is_never_a_regression(self):
        empty = {"schema_version": BENCH_SCHEMA_VERSION, "modes": {}}
        fresh = unit_row(vector=0.1, reference=0.1)
        assert check_against_baseline(
            empty, "smoke", fresh,
            {"reference_norm": 0.1, "vector_norm": 0.1}) == []

    def test_missing_record_is_skipped(self):
        """A mode recorded in one artefact but not the other."""
        partial = {"modes": {"smoke": {"unit": None, "sweep": None}}}
        assert check_against_baseline(
            partial, "smoke", unit_row(vector=0.1, reference=0.1),
            {"reference_norm": 0.1, "vector_norm": 0.1}) == []

    def test_other_mode_baseline_is_ignored(self):
        fresh = unit_row(vector=0.1, reference=0.1)
        assert check_against_baseline(baseline(), "full", fresh,
                                      None) == []

    def test_rows_are_combined_by_geometric_mean(self):
        """One noisy row does not trip the gate on its own; a large
        drop of one row drags the mean below the floor too."""
        noisy = unit_row(vector=8.0 * 0.8)
        sweep = {"reference_norm": 1.5, "vector_norm": 1.5}
        assert check_against_baseline(baseline(), "smoke", noisy,
                                      sweep) == []
        collapsed = unit_row(vector=8.0 * 0.5)
        problems = check_against_baseline(baseline(), "smoke", collapsed,
                                          sweep)
        assert len(problems) == 2
        assert "geometric mean" in problems[0]
        assert "unit/hot_loop 0.50x" in problems[0]

    def test_one_row_regression_cannot_hide_in_the_mean(self):
        """A drop confined to the sweep row passes the geometric mean
        over three rows but not the per-row floor."""
        base = baseline()
        base["modes"]["smoke"]["unit"]["mcf"] = {"reference_norm": 1.0,
                                                 "vector_norm": 2.0}
        fresh = {**unit_row(), "mcf": {"reference_norm": 1.0,
                                       "vector_norm": 2.0}}
        sweep = {"reference_norm": 1.5,
                 "vector_norm": 1.5 * (ROW_TOLERANCE - 0.01)}
        problems = check_against_baseline(base, "smoke", fresh, sweep)
        assert len(problems) == 1
        assert "vector: sweep" in problems[0]
        assert str(ROW_TOLERANCE) in problems[0]

    def test_tolerance_fails_a_thirty_percent_slowdown(self):
        assert 1 / 1.3 < REGRESSION_TOLERANCE < 1.0

    def test_row_floor_sits_below_the_mean_floor(self):
        """The per-row floor leaves room for single-row noise, which is
        wider than the mean's, and still fails a row that loses more
        than 30 % of its throughput."""
        assert 0.5 < ROW_TOLERANCE <= 0.7 < REGRESSION_TOLERANCE


class TestMergeModePayload:
    def test_merge_preserves_other_modes(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        merge_mode_payload(path, "smoke", {"unit": {"a": 1}})
        merged = merge_mode_payload(path, "full", {"unit": {"b": 2}})
        assert set(merged["modes"]) == {"smoke", "full"}
        on_disk = json.loads(path.read_text())
        assert on_disk["modes"]["smoke"] == {"unit": {"a": 1}}
        assert on_disk["schema_version"] == BENCH_SCHEMA_VERSION

    def test_rerun_overwrites_only_that_mode(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        merge_mode_payload(path, "smoke", {"unit": {"a": 1}})
        merge_mode_payload(path, "full", {"unit": {"b": 2}})
        merged = merge_mode_payload(path, "smoke", {"unit": {"a": 9}})
        assert merged["modes"]["smoke"] == {"unit": {"a": 9}}
        assert merged["modes"]["full"] == {"unit": {"b": 2}}

    def test_incompatible_schema_starts_fresh(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        path.write_text(json.dumps({"schema_version": -1,
                                    "modes": {"smoke": {"x": 1}}}))
        merged = merge_mode_payload(path, "full", {"unit": {}})
        assert set(merged["modes"]) == {"full"}

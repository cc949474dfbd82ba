"""Tests for bench/ab.py's pure summary of A/B pairs; nothing here starts a
process or touches git."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "bench" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

LOWER = {"name": "job_s.p50", "unit": "s", "better": "lower"}
HIGHER = {"name": "step_layers_per_s", "unit": "1/s", "better": "higher"}


def pairs_of(base, change, name="job_s.p50"):
    return [({name: b}, {name: c}) for b, c in zip(base, change)]


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        [row] = ab.summarize(pairs_of([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.5, 3.0, 3.5, 4.0]),
                             [LOWER])
        assert row["base_median"] == 3.0 and row["change_median"] == 3.0
        assert (row["base_q1"], row["base_q3"]) == (2.0, 4.0)
        # Pair 2 is a tie and counts for neither side.
        assert row["wins"] == 3 and row["pairs"] == 5
        assert not row["clear"]

    def test_direction_follows_better(self):
        pairs = [({"step_layers_per_s": b}, {"step_layers_per_s": c})
                 for b, c in ((10.0, 12.0), (11.0, 10.0), (9.0, 9.0))]
        [row] = ab.summarize(pairs, [HIGHER])
        assert row["wins"] == 1

    def test_clear_needs_nine_in_ten_and_a_gap_beyond_the_spread(self):
        base = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
        faster = [b - 0.2 for b in base]
        [row] = ab.summarize(pairs_of(base, faster), [LOWER])
        assert row["wins"] == 10 and row["clear"]
        # Winning every pair by less than the base's quartile spread.
        [row] = ab.summarize(pairs_of(base, [b - 0.01 for b in base]), [LOWER])
        assert row["wins"] == 10 and not row["clear"]
        # Eight wins in ten is not clear, however large the gap.
        [row] = ab.summarize(pairs_of(base, faster[:8] + base[8:]), [LOWER])
        assert row["wins"] == 8 and not row["clear"]

    def test_one_pair(self):
        [row] = ab.summarize(pairs_of([2.0], [1.0]), [LOWER])
        assert (row["base_q1"], row["base_q3"]) == (2.0, 2.0)
        assert row["wins"] == 1 and row["clear"]

    def test_every_end_to_end_metric_of_the_benchmark(self):
        metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        values = {metric["name"]: 1.0 for metric in metrics}
        rows = ab.summarize([(values, values)] * 3, metrics)
        assert [row["name"] for row in rows] == [metric["name"] for metric in metrics]
        assert all(row["wins"] == 0 and not row["clear"] for row in rows)
        assert all(ab.format_row(row).startswith(row["name"] + ": base 1 ") for row in rows)

    def test_sides_sit_at_paths_of_equal_length(self):
        assert len({len(name) for name in ab.SIDES.values()}) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--base", "HEAD", "--workload", "nope", "--pairs", "2"], "--workload must be one of"),
        (["--base", "HEAD", "--workload", "sweep-live", "--pairs", "0"], "--pairs must be"),
        (["--base", "HEAD", "--workload", "sweep-live", "--pairs", "1", "--seconds", "0"],
         "--seconds must be"),
    ])
    def test_bad_arguments_refused(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            ab.parse_args(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestInproc:
    def test_summary_of_job_pairs(self):
        # (base, other) seconds: other faster in pairs 0 and 2, slower in
        # pair 3, tied in pair 1.
        row = ab.summarize_inproc([(1.0, 0.5), (2.0, 2.0), (4.0, 3.0), (3.0, 6.0)])
        assert row["pairs"] == 4
        assert (row["base_median"], row["other_median"]) == (2.5, 2.5)
        assert row["ratio"] == 1.0
        # Paired ratios 0.5, 1, 0.75, 2.
        assert row["paired_ratio"] == 0.875
        assert (row["wins"], row["losses"]) == (2, 1)
        # Ties are dropped: 2 wins against 1 loss out of 3.
        assert row["sign_p"] == 1.0

    def test_sign_test(self):
        assert ab.sign_p(0, 0) == 1.0
        assert ab.sign_p(5, 5) == 1.0
        # All ten pairs one way: 2 / 2**10.
        assert ab.sign_p(10, 0) == ab.sign_p(0, 10) == 2 / 1024
        # P(X <= 1) for 10 fair coins is 11 / 1024, doubled.
        assert ab.sign_p(9, 1) == 22 / 1024
        assert 0.0 < ab.sign_p(200, 100) < 1e-7

    def test_format_names_the_side(self):
        row = ab.summarize_inproc([(2.0, 1.0)])
        line = ab.format_inproc("null", row)
        assert line.startswith("null against base: median 1 s against 2 s, ratio 0.5000")
        assert "faster in 1/1, slower in 0" in line

    def test_package_imports_under_a_name_of_its_own(self):
        """The checkout's kvprune loads as a second, independent package:
        its modules are its own, not the installed kvprune's."""
        from kvprune import simulator

        name = "kvprune_ab_test"
        try:
            cli = ab.import_cli(str(ROOT), name)
            assert cli.__name__ == f"{name}.cli"
            assert sys.modules[f"{name}.simulator"] is not simulator
            assert cli.main(["simulate", "--no-such-flag"]) == 1
        finally:
            for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
                del sys.modules[module]

    def test_workdirs_of_equal_length(self):
        assert len({len(ab.inproc_workdir(name)) for _, name in ab.INPROC.values()}) == 1
        assert ab.INPROC["null"][0] == ab.INPROC["base"][0] == "base"

    def test_flag(self):
        args = ab.parse_args(["--base", "HEAD", "--workload", "sweep-live", "--pairs", "3",
                              "--inproc"])
        assert args.inproc and args.pairs == 3
        assert not ab.parse_args(["--base", "HEAD", "--workload", "sweep-live",
                                  "--pairs", "3"]).inproc

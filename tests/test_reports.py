"""Tests for CSV/JSON emission: schemas, formatting, determinism."""

import dataclasses
import json
import platform
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import kvprune
from kvprune.core import PruneConfig
from kvprune.diagnostics import DensityCurve, layer_report
from kvprune.reports import (
    RESULTS_COLUMNS,
    STEP_COLUMNS,
    density_csv,
    divergence_csv,
    format_cell,
    results_csv,
    step_rows,
    steps_csv,
    summarize,
    write_config_sidecar,
    write_text,
)
from kvprune.simulator import SynthSpec, record_trace, run_decode
from kvprune.traceio import AttentionTrace

SPEC = SynthSpec(seed=5, text_len=12, visual_len=12, layers=2, heads=2,
                 head_dim=8, steps=6, shift=2.0)
CFG = PruneConfig(budget=14, recent=4, obs_window=4, cross_ratio=0.5,
                  smoothing=1.0, widen_to_budget=True)


@pytest.fixture(scope="module")
def csp_report():
    return run_decode(SPEC, "csp", CFG)


@pytest.fixture(scope="module")
def diag_report():
    return layer_report(record_trace(SPEC, CFG.obs_window))


class TestFormatCell:
    @pytest.mark.parametrize("value, text", [
        (None, ""),
        (True, "1"),
        (False, "0"),
        (0.5, "0.5"),
        (1.0 / 3.0, "0.333333333"),
        (1234567898.0, "1.2345679e+09"),
        (7, "7"),
        ("csp", "csp"),
    ])
    def test_rendering(self, value, text):
        assert format_cell(value) == text

    def test_nine_significant_digits(self):
        assert format_cell(float(np.pi)) == "3.14159265"


class TestSummarize:
    def test_fields(self, csp_report):
        row = summarize(csp_report)
        assert row.policy == "csp"
        assert row.budget_fraction == 14 / 30
        assert row.cross_ratio == 0.5
        assert row.smooth_n == 1.0
        assert row.seed == SPEC.seed
        assert row.achieved_occupancy == np.mean(
            [ids.size for ids in csp_report.retained_ids]
        )
        assert (row.text_retained, row.visual_retained) == csp_report.retained_counts
        assert row.mean_recon_error == np.mean(csp_report.recon_error)
        assert row.bytes_cached == csp_report.bytes_cached[-1]

    def test_explicit_fraction_wins(self, csp_report):
        assert summarize(csp_report, budget_fraction=0.25).budget_fraction == 0.25

    def test_occupancy_is_the_true_mean_over_layers(self, csp_report):
        """Layers that retain 3 and 4 tokens occupy 3.5 on average."""
        report = dataclasses.replace(csp_report, retained_ids=[np.arange(3), np.arange(4)])
        assert summarize(report).achieved_occupancy == 3.5

    def test_bytes_cached_is_the_last_steps(self):
        """A full run's cache grows every step: the row reports the final
        step's 30 tokens of float32 keys and values over 2 layers, not
        the prefill's 24."""
        report = run_decode(SPEC, "full", CFG)
        assert report.bytes_cached[0] == 24 * 2 * 8 * 4 * 2
        assert summarize(report).bytes_cached == 30 * 2 * 8 * 4 * 2

    def test_run_without_steps(self):
        """A run over a trace of a prefill alone has no step to summarize."""
        trace = AttentionTrace(layers=1, heads=1, head_dim=4, prefill_tags=[0, 1, 0])
        report = run_decode(trace, "csp", PruneConfig(budget=2, recent=1, obs_window=1))
        with pytest.raises(ValueError, match="^the run has no steps to summarize$"):
            summarize(report)

    def test_replay_has_empty_recon(self):
        trace = record_trace(SPEC, CFG.obs_window)
        row = summarize(run_decode(trace, "csp", CFG))
        assert row.mean_recon_error is None
        assert ",," in results_csv([row])

    def test_seed_is_the_decodes(self):
        """A live run reports its spec's seed; a replay, whose trace
        records no seed, reports its config's."""
        cfg = CFG.with_updates(seed=3)
        assert summarize(run_decode(SPEC, "csp", cfg)).seed == SPEC.seed == 5
        assert summarize(run_decode(record_trace(SPEC, cfg.obs_window), "csp", cfg)).seed == 3


class TestResultsCsv:
    def test_header_and_shape(self, csp_report):
        text = results_csv([summarize(csp_report)])
        lines = text.splitlines()
        assert lines[0] == ",".join(RESULTS_COLUMNS)
        # Spelled out, so a reordered or renamed ResultsRow field shows here.
        assert lines[0] == ("policy,budget_fraction,cross_ratio,smooth_n,seed,achieved_occupancy,"
                            "text_retained,visual_retained,mean_recon_error,bytes_cached")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(RESULTS_COLUMNS)
        assert text.endswith("\n")

    def test_byte_identical_across_runs(self):
        a = results_csv([summarize(run_decode(SPEC, "csp", CFG))])
        b = results_csv([summarize(run_decode(SPEC, "csp", CFG))])
        assert a == b


class TestStepsCsv:
    def test_row_per_step_and_layer(self, csp_report):
        rows = step_rows(csp_report)
        assert len(rows) == csp_report.steps * SPEC.layers
        text = steps_csv(csp_report)
        lines = text.splitlines()
        assert lines[0] == ",".join(STEP_COLUMNS)
        assert len(lines) == 1 + len(rows)

    def test_accepts_report_list(self, csp_report):
        other = run_decode(SPEC, "global-topk", CFG)
        text = steps_csv([csp_report, other])
        assert text.count("global-topk") == other.steps * SPEC.layers

    def test_default_fraction_is_the_budget_over_the_final_length(self, csp_report):
        assert {row[3] for row in step_rows(csp_report)} == {14 / 30}
        assert {row[3] for row in step_rows(csp_report, 0.25)} == {0.25}

    def test_occupancy_tracks_decisions(self, csp_report):
        rows = step_rows(csp_report)
        occupancy = {
            (row[0], row[1]): row[8] for row in rows
        }
        for step, decisions in enumerate(csp_report.per_step):
            for layer, decision in enumerate(decisions):
                assert occupancy[(step, layer)] == decision.achieved_occupancy


class TestDiagnosticsCsv:
    def test_divergence_csv(self, diag_report):
        lines = divergence_csv(diag_report).splitlines()
        assert lines[0] == "layer,js_divergence"
        assert len(lines) == 1 + SPEC.layers

    def test_density_csv(self, diag_report):
        lines = density_csv(diag_report).splitlines()
        assert lines[0] == "layer,pairing,weight,density"
        points = diag_report.curves[0][0].grid.size
        assert len(lines) == 1 + SPEC.layers * 2 * points
        assert {line.split(",")[1] for line in lines[1:]} == {"intra", "inter"}


# Finite values with signed zeros, subnormals, huge magnitudes and
# decimals that round at the 9th significant digit forced in.
CSV_VALUES = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2e-308, 1e300, -1e300, 1.0000000005, 0.1234567895, 123456789.5,
     -2.5e-9]
)


@st.composite
def density_curves(draw):
    grid = sorted(draw(st.lists(CSV_VALUES, min_size=1, max_size=20, unique=True)))
    density = draw(st.lists(CSV_VALUES.map(abs), min_size=len(grid), max_size=len(grid)))
    return DensityCurve(grid=grid, density=density, bandwidth=1.0)


class TestDensityCsvFormatting:
    """density_csv formats whole arrays; the oracle formats cell by cell."""

    @given(st.lists(st.tuples(density_curves(), density_curves()), min_size=1, max_size=3))
    def test_matches_per_cell_formatting(self, curves):
        report = SimpleNamespace(curves=curves)
        assert density_csv(report) == oracles.density_csv_text(curves)

    def test_one_point_curves(self):
        curve = DensityCurve(grid=[-0.5], density=[0.0], bandwidth=1.0)
        report = SimpleNamespace(curves=[(curve, curve)])
        assert density_csv(report) == oracles.density_csv_text(report.curves)

    def test_layer_report(self, diag_report):
        assert density_csv(diag_report) == oracles.density_csv_text(diag_report.curves)


class TestFileHelpers:
    def test_write_text_exact_bytes(self, tmp_path):
        target = tmp_path / "out.csv"
        write_text(target, "a,b\n1,2\n")
        assert target.read_bytes() == b"a,b\n1,2\n"

    def test_config_sidecar(self, tmp_path):
        target = tmp_path / "results.csv"
        sidecar = write_config_sidecar(target, {"budget": 14, "policy": "csp"})
        assert sidecar == f"{target}.config.json"
        payload = json.loads((tmp_path / "results.csv.config.json").read_text())
        assert payload == {
            "budget": 14,
            "policy": "csp",
            "versions": {"kvprune": kvprune.__version__, "numpy": np.__version__,
                         "python": platform.python_version()},
        }

    def test_config_sidecar_layout(self, tmp_path):
        """Keys sorted, two spaces an indent level, one newline at the end,
        so a fixed run writes the same sidecar bytes."""
        target = tmp_path / "results.csv"
        write_config_sidecar(target, {"policy": "csp", "budget": 14})
        text = (tmp_path / "results.csv.config.json").read_text()
        assert text.startswith('{\n  "budget": 14,\n  "policy": "csp",\n  "versions": {\n'
                               '    "kvprune": ')
        assert text.endswith("\n  }\n}\n")


"""End-to-end CLI tests: every subcommand, exit codes, config layering."""

import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import platform
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import kvprune
from kvprune import cli, policies, simulator, traceio
from kvprune.cli import main
from kvprune.core import PruneConfig
from kvprune.reports import RESULTS_COLUMNS, STEP_COLUMNS
from kvprune.simulator import SynthSpec
from kvprune.traceio import MAGIC, read_trace
from test_traceio import (  # noqa: F401  (fuzz_dir is a fixture)
    fuzz_dir, mutated_bytes, write_with_logit,
)

SPEC_FLAGS = ["--text", "8", "--visual", "8", "--layers", "2", "--heads", "2",
              "--dim", "8", "--steps", "4"]
CFG_FLAGS = ["--budget", "0.5", "--recent", "2", "--obs", "4"]
HELP_DIR = pathlib.Path(__file__).parent / "data" / "help"
HELP_COMMANDS = ["gen-trace", "simulate", "sweep", "analyze", "compare"]
VERSIONS = {
    "kvprune": kvprune.__version__,
    "numpy": np.__version__,
    "python": platform.python_version(),
}


# sha256 of analyze's outputs at the benchmark's trace-analyze shape, seed 7.
ANALYZE_GOLDEN = {
    "divergence.csv": "a563c8bbe12437183781cc431fac48361dc62701d69dc063e960297702b9de19",
    "divergence_kde.csv": "551b439191bd966ea0ba988dfa00c3552af426cc8986e8e44e2679e153698b91",
    "divergence_js.svg": "6120ff6a1f09e0ada2d78514850ed4d8ea9145715d37c073a9624b37cc8db439",
    "divergence_kde_layer0.svg":
        "0668757c833735d77ae8a3aa7f9225d20184f7470394e16b24d8ff47ffea7e8a",
    "divergence_kde_layer1.svg":
        "fc4cd0d8c70bc23a6e9203fefe6eb7068f1df99c084c8ac6c80ef5ebe7f76e1c",
}


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "run.trace"
    assert main(["gen-trace", *SPEC_FLAGS, "--obs", "4", "--out", str(path)]) == 0
    return path


def read_lines(path):
    return path.read_text().splitlines()


class TestHelpAndUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-trace" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        assert main(["simulate", "--help"]) == 0
        assert "--policy" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flags", [
        ("gen-trace", "text visual interleave layers heads dim steps shift spread obs seed out"),
        ("simulate", "trace text visual interleave layers heads dim steps shift spread budget "
                     "ratio recent obs n recency-bias widen no-widen seed policy pool-width "
                     "baseline-n out"),
        ("sweep", "axis grid svg text visual interleave layers heads dim steps shift spread "
                  "budget ratio recent obs n recency-bias widen no-widen seed policy "
                  "pool-width baseline-n out"),
        ("analyze", "bins epsilon bandwidth obs recent svg out"),
        ("compare", "policies trace budget ratio recent obs n recency-bias widen no-widen "
                    "seed pool-width baseline-n out"),
    ])
    def test_subcommand_flags(self, command, flags, capsys):
        """Each subcommand's --help lists exactly these flags."""
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
        assert listed == {"help", *flags.split()}

    @pytest.mark.parametrize("command", ["kvprune", *HELP_COMMANDS])
    def test_help_text(self, command, capsys, monkeypatch):
        """Every --help text, wrapped at 80 columns, is exactly the pinned
        one in tests/data/help."""
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["--help"] if command == "kvprune" else [command, "--help"]) == 0
        assert capsys.readouterr().out == (HELP_DIR / f"{command}.txt").read_text()

    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["gen-trace", "--frobnicate", "--out", "x"]) == 1
        assert "error" in capsys.readouterr().err


class TestGenTrace:
    def test_writes_trace_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "t.trace"
        assert main(["gen-trace", *SPEC_FLAGS, "--obs", "4", "--seed", "3",
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out

        trace = read_trace(out)
        assert trace.layers == 2
        assert trace.final_length == 20

        sidecar = json.loads((tmp_path / "t.trace.config.json").read_text())
        assert sidecar["versions"] == VERSIONS
        assert sidecar["command"] == "gen-trace"
        assert sidecar["spec"]["seed"] == 3
        assert sidecar["outputs"] == [str(out)]

    def test_bad_obs(self, tmp_path):
        assert main(["gen-trace", "--obs", "0",
                     "--out", str(tmp_path / "t.trace")]) == 1

    def test_bad_spec_value(self, tmp_path):
        assert main(["gen-trace", "--spread", "0",
                     "--out", str(tmp_path / "t.trace")]) == 1

    @pytest.mark.parametrize("flag", ["--layers", "--heads", "--dim"])
    def test_header_field_overflow(self, tmp_path, flag, capsys, monkeypatch):
        """The trace header stores layers, heads and head dim as u16, so a
        larger value is a usage error, raised before anything is decoded
        (decoding such a spec could take gigabytes)."""

        def no_decode(*args):
            raise AssertionError("gen-trace decoded an unwritable spec")

        monkeypatch.setattr(cli, "record_trace", no_decode)
        out = tmp_path / "t.trace"
        assert main(["gen-trace", flag, "65536", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and flag in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSimulate:
    def test_synthetic_run(self, tmp_path):
        out = tmp_path / "steps.csv"
        assert main(["simulate", *SPEC_FLAGS, *CFG_FLAGS, "--policy", "csp",
                     "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == ",".join(STEP_COLUMNS)
        assert len(lines) == 1 + 5 * 2  # steps+1 records x layers

        sidecar = json.loads((tmp_path / "steps.csv.config.json").read_text())
        assert sidecar["versions"] == VERSIONS
        assert sidecar["command"] == "simulate"
        assert sidecar["policy"] == "csp"
        assert sidecar["config"]["budget_fraction"] == 0.5
        assert sidecar["spec"]["text_len"] == 8

    def test_trace_replay_has_empty_recon_cells(self, tmp_path, trace_path):
        out = tmp_path / "replay.csv"
        assert main(["simulate", "--trace", str(trace_path), *CFG_FLAGS,
                     "--policy", "global-topk", "--out", str(out)]) == 0
        recon_index = STEP_COLUMNS.index("recon_error")
        for line in read_lines(out)[1:]:
            assert line.split(",")[recon_index] == ""
        sidecar = json.loads((tmp_path / "replay.csv.config.json").read_text())
        assert sidecar["versions"] == VERSIONS
        assert sidecar["trace"] == str(trace_path)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", *SPEC_FLAGS, *CFG_FLAGS, "--seed", "9", "--policy", "csp"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed(self, tmp_path, trace_path, capsys):
        """A synthetic decode refuses a negative seed, naming it, before it
        decodes; a replay only records the seed, so it takes one."""
        assert main(["simulate", *SPEC_FLAGS, *CFG_FLAGS, "--seed", "-1",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "error: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert main(["simulate", "--trace", str(trace_path), *CFG_FLAGS, "--seed", "-1",
                     "--out", str(tmp_path / "replay.csv")]) == 0

    def test_bad_budget_fraction(self, tmp_path):
        assert main(["simulate", *SPEC_FLAGS, "--budget", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_unknown_policy_flag(self, tmp_path):
        assert main(["simulate", "--policy", "oracle",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_missing_trace_file(self, tmp_path, capsys):
        assert main(["simulate", "--trace", str(tmp_path / "absent.trace"),
                     *CFG_FLAGS, "--out", str(tmp_path / "x.csv")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["full", "csp"])
    def test_non_finite_logit_is_data_error(self, tmp_path, trace_path, policy, capsys):
        """One NaN in a trace is rejected on read, naming where it is, even
        for policies that would never score its column."""
        bad = tmp_path / "nan.trace"
        write_with_logit(read_trace(trace_path), bad, 2, (1, 1, 0, 0), np.nan)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--trace", str(bad), *CFG_FLAGS, "--policy", policy,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step 2 layer 1 head 1: non-finite logit nan")
        assert not out.exists()

    def test_corrupt_trace_file(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"not a trace at all")
        assert main(["simulate", "--trace", str(bad), *CFG_FLAGS,
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("n, code", [("0", 1), ("1", 0)])
    def test_emptied_kept_set(self, tmp_path, capsys, n, code):
        """csp at recent 0 and a tiny budget empties layer 0's kept set: at
        n 0 its weights are undefined, a usage error with no CSV; at n 1
        the run completes."""
        out = tmp_path / "x.csv"
        assert main(["simulate", "--recent", "0", "--n", n, "--budget", "0.1", *SPEC_FLAGS,
                     "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err == (
                "error: no columns and smoothing is 0; weights are undefined\n")
            assert not out.exists()
        else:
            assert out.exists()

    def test_pool_width_validation(self, tmp_path):
        assert main(["simulate", *SPEC_FLAGS, *CFG_FLAGS,
                     "--policy", "global-topk", "--pool-width", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1


class TestSweep:
    def test_grid_rows_and_svg(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "cross_ratio", "--grid", "0.2,0.8",
                     *SPEC_FLAGS, *CFG_FLAGS, "--policy", "csp", "--svg",
                     "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == ",".join(RESULTS_COLUMNS)
        assert len(lines) == 3

        svg = (tmp_path / "sweep.svg").read_text()
        assert svg.lstrip().startswith("<svg")

        sidecar = json.loads((tmp_path / "sweep.csv.config.json").read_text())
        assert sidecar["versions"] == VERSIONS
        assert sidecar["axis"] == "cross_ratio"
        assert sidecar["grid"] == [0.2, 0.8]
        assert "threads" not in sidecar
        assert str(tmp_path / "sweep.svg") in sidecar["outputs"]

    def test_budget_axis_reports_grid_fraction(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "budget_fraction", "--grid", "0.4,0.8",
                     *SPEC_FLAGS, *CFG_FLAGS, "--policy", "csp",
                     "--out", str(out)]) == 0
        fraction_index = RESULTS_COLUMNS.index("budget_fraction")
        cells = [line.split(",")[fraction_index] for line in read_lines(out)[1:]]
        assert cells == ["0.4", "0.8"]

    def test_axis_span_beyond_the_largest_float(self, tmp_path):
        """A grid whose padded span overflows still plots every point and
        tick label as a finite number, with no warning."""
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--axis", "smooth_n", "--grid", "0,1.75e308", "--svg",
                         "--text", "8", "--visual", "8", "--steps", "4", "--out", str(out)]) == 0
        svg = (tmp_path / "s.svg").read_text()
        assert re.search(r'<polyline points="[0-9.]+,[0-9.]+ [0-9.]+,[0-9.]+"', svg)
        assert not re.search(r"nan|inf", svg)

    def test_bad_grid(self, tmp_path):
        assert main(["sweep", "--axis", "cross_ratio", "--grid", "a,b",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["sweep", "--axis", "cross_ratio", "--grid", ",",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_axis(self, tmp_path):
        assert main(["sweep", "--axis", "budget", "--grid", "0.5",
                     "--out", str(tmp_path / "x.csv")]) == 1


class TestAnalyze:
    def test_trace_without_steps(self, tmp_path, capsys):
        """A trace of a prefill alone is a data error: exit 2, one error
        line that names the cause, and no file written."""
        path = tmp_path / "prefill.trace"
        traceio.write_trace(traceio.AttentionTrace(layers=1, heads=1, head_dim=4,
                                                   prefill_tags=[0, 1, 0]), path)
        capsys.readouterr()
        assert main(["analyze", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: the trace has no steps to sample\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prefill.trace"]

    def test_divergence_and_kde_outputs(self, tmp_path, trace_path):
        out = tmp_path / "div.csv"
        assert main(["analyze", str(trace_path), "--out", str(out)]) == 0
        assert read_lines(out)[0] == "layer,js_divergence"
        assert len(read_lines(out)) == 3
        kde_lines = read_lines(tmp_path / "div_kde.csv")
        assert kde_lines[0] == "layer,pairing,weight,density"

    def test_svg_outputs(self, tmp_path, trace_path):
        out = tmp_path / "div.csv"
        assert main(["analyze", str(trace_path), "--svg", "--out", str(out)]) == 0
        for name in ("div_js.svg", "div_kde_layer0.svg", "div_kde_layer1.svg"):
            assert (tmp_path / name).read_text().lstrip().startswith("<svg")
        sidecar = json.loads((tmp_path / "div.csv.config.json").read_text())
        assert sidecar["versions"] == VERSIONS
        assert len(sidecar["outputs"]) == 5

    @pytest.mark.parametrize("flags", [
        ["--bins", "1"],
        ["--epsilon", "0"],
        ["--bandwidth", "0"],
        ["--obs", "0"],
        ["--recent", "-1"],
        ["--bins", str(2**50)],
        ["--bins", str(2**62)],
        ["--bins", "9" * 401],
    ])
    def test_parameter_validation(self, tmp_path, trace_path, flags, capsys):
        """Bad values, huge bin counts included, are usage errors with one
        error line and no traceback."""
        capsys.readouterr()
        assert main(["analyze", str(trace_path), *flags,
                     "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--bandwidth", "inf"],
        ["--epsilon", "inf"],
        ["--epsilon", "1e307"],
    ], ids=["bandwidth-inf", "epsilon-inf", "epsilon-overflow"])
    def test_non_finite_parameter(self, tmp_path, trace_path, flags, capsys):
        """Values that are positive but not finite, or whose histogram sum
        over the default bins is not, are usage errors with one error
        line, not a data error or a traceback."""
        capsys.readouterr()
        assert main(["analyze", str(trace_path), *flags,
                     "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("bandwidth", ["5e-324", "1e-310", "1e308", "2e307"])
    def test_overflowing_bandwidth(self, tmp_path, trace_path, bandwidth, capsys):
        """Finite and positive, but its reciprocal or ten times it is not:
        a usage error with one error line, and no file written."""
        capsys.readouterr()
        out = tmp_path / "x.csv"
        assert main(["analyze", str(trace_path), "--bandwidth", bandwidth,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --bandwidth") and err.count("\n") == 1
        assert not out.exists() and not (tmp_path / "x_kde.csv").exists()
        assert not (tmp_path / "x.csv.config.json").exists()

    def test_golden_bytes(self, tmp_path):
        """gen-trace then analyze --svg at the benchmark's trace-analyze
        shape, seed 7: every output but the path-bearing sidecars matches
        digests recorded before the KDE and formatter rewrites."""
        trace = tmp_path / "job.trace"
        out = tmp_path / "divergence.csv"
        assert main(["gen-trace", "--text", "32", "--visual", "32", "--interleave", "block",
                     "--layers", "2", "--heads", "2", "--dim", "16", "--steps", "4",
                     "--shift", "2.0", "--obs", "32", "--seed", "7",
                     "--out", str(trace)]) == 0
        assert main(["analyze", str(trace), "--svg", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ANALYZE_GOLDEN}
        assert digests == ANALYZE_GOLDEN

    def test_missing_trace(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.trace"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_huge_declared_payload(self, tmp_path, capsys):
        """A header declaring far more block data than the file holds is a
        trace error (exit 2), not an allocation failure."""
        bad = tmp_path / "huge.trace"
        header = struct.pack("<HHHIHI", 1, 60000, 60000, 1, 8, 1)
        bad.write_bytes(MAGIC + header + b"\x00" + struct.pack("<III", 0, 1, 1))
        assert main(["analyze", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace truncated in step 0")
        assert "60000x60000 blocks" in err
        assert "Traceback" not in err

    @given(data=st.data())
    def test_mutated_trace_exits_cleanly(self, fuzz_dir, data):
        """Analyze, a csp simulate and a widening four-policy compare, on
        flipped, truncated or padded trace bytes succeed or report a data
        error; no exception escapes main."""
        path = fuzz_dir / "mutated.trace"
        path.write_bytes(data.draw(mutated_bytes((fuzz_dir / "valid.trace").read_bytes())))
        commands = [
            ["analyze", str(path), "--out", str(fuzz_dir / "div.csv")],
            ["simulate", "--trace", str(path), "--policy", "csp", "--budget", "0.5",
             "--recent", "1", "--obs", "2", "--out", str(fuzz_dir / "sim.csv")],
            ["compare", "--trace", str(path), "--policies", "csp,global-topk,accum,full",
             "--widen", "--budget", "0.5", "--recent", "1", "--obs", "2",
             "--out", str(fuzz_dir / "cmp.csv")],
        ]
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2)
            assert err.getvalue().startswith("error: ") == (code == 2)


class TestCompare:
    def test_joined_output(self, tmp_path, trace_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--policies", "csp,global-topk,accum",
                     "--trace", str(trace_path), *CFG_FLAGS,
                     "--out", str(out)]) == 0
        text = out.read_text()
        for name in ("csp", "global-topk", "accum"):
            assert name in text
        assert len(read_lines(out)) == 1 + 3 * 5 * 2

        sidecar = json.loads((tmp_path / "cmp.csv.config.json").read_text())
        assert sidecar["versions"] == VERSIONS
        assert sidecar["policies"] == ["csp", "global-topk", "accum"]

    def test_needs_two_policies(self, tmp_path, trace_path):
        assert main(["compare", "--policies", "csp", "--trace", str(trace_path),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_unknown_policy(self, tmp_path, trace_path):
        assert main(["compare", "--policies", "csp,oracle",
                     "--trace", str(trace_path),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_repeated_policy(self, tmp_path, trace_path, capsys):
        """A name given twice would write its rows twice, with nothing in
        the CSV to tell the two runs apart."""
        out = tmp_path / "x.csv"
        assert main(["compare", "--policies", "csp,accum,csp", "--trace", str(trace_path),
                     *CFG_FLAGS, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "'csp'" in err
        assert not out.exists() and not (tmp_path / "x.csv.config.json").exists()


    def _nine_step_trace(self, monkeypatch, tmp_path):
        """A 9-record trace the compare below reads: written to a file
        that read_trace checks whole, and handed to compare as read."""
        trace = simulator.record_trace(SynthSpec(text_len=8, visual_len=8, layers=2, heads=2,
                                                 head_dim=8, steps=8), 4)
        assert len(trace.steps) == 9
        monkeypatch.setattr(cli, "read_trace", lambda path: trace)
        return trace, ["compare", "--policies", "csp,global-topk,accum", "--trace", "t.trace",
                       *CFG_FLAGS, "--widen", "--out", str(tmp_path / "cmp.csv")]

    def test_each_record_checked_once_per_compare(self, tmp_path, monkeypatch):
        """compare replays all its policies in one pass, so a 3-policy
        compare checks each of 9 records once (9 record checks, each with
        its finiteness pass), not once per policy (27)."""
        _, argv = self._nine_step_trace(monkeypatch, tmp_path)
        checked = []
        check = traceio.checked_step

        def counted(*args):
            checked.append(args)
            return check(*args)

        monkeypatch.setattr(traceio, "checked_step", counted)
        assert main(argv) == 0
        assert len(checked) == 9

    def test_nan_in_trace_exits_2(self, tmp_path, monkeypatch, capsys):
        """A NaN in a trace that reaches compare in memory is refused with
        run_decode's message and exit code 2."""
        trace, argv = self._nine_step_trace(monkeypatch, tmp_path)
        trace.steps[4].blocks[0, 1, 0, 2] = np.nan
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: step 4 layer 0 head 1: non-finite logit nan at row 0, col 2\n"
        assert not (tmp_path / "cmp.csv").exists()


class TestSharedParser:
    """main builds its parser once per process; no call sees another's."""

    CALLS = [
        ["sweep", "--axis", "bogus", "--grid", "0.5", "--out", "bad.csv"],
        ["sweep", "--axis", "cross_ratio", "--grid", "0.2,0.8", *SPEC_FLAGS, *CFG_FLAGS,
         "--out", "sweep.csv"],
        ["--config", "cfg.json", "simulate", *SPEC_FLAGS, *CFG_FLAGS, "--out", "with.csv"],
        ["simulate", *SPEC_FLAGS, *CFG_FLAGS, "--out", "without.csv"],
        ["--help"],
    ]

    def run_all(self, run_dir, monkeypatch, fresh):
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        (run_dir / "cfg.json").write_text(json.dumps({"n": 2.5}))
        results = []
        for argv in self.CALLS:
            if fresh:
                cli._shared_parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        files = {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}
        return results, files

    def test_calls_match_fresh_parsers(self, tmp_path, monkeypatch):
        parser = cli._shared_parser()
        shared = self.run_all(tmp_path / "shared", monkeypatch, fresh=False)
        assert cli._shared_parser() is parser
        fresh = self.run_all(tmp_path / "fresh", monkeypatch, fresh=True)
        assert shared == fresh

        results, files = shared
        assert [code for code, _, _ in results] == [1, 0, 0, 0, 0]
        assert "gen-trace" in results[-1][1]
        assert "bad.csv" not in files
        smoothing = {name: json.loads(files[f"{name}.csv.config.json"])["config"]["smoothing"]
                     for name in ("with", "without")}
        assert smoothing == {"with": 2.5, "without": 1.0}


# Where the library repeats a table flag's default: (flag, owner, field or
# parameter). Flags with no library default are listed apart, so a new
# flag must be placed in one or the other.
LIBRARY_DEFAULTS = [
    ("text", SynthSpec, "text_len"),
    ("visual", SynthSpec, "visual_len"),
    ("interleave", SynthSpec, "interleave"),
    ("layers", SynthSpec, "layers"),
    ("heads", SynthSpec, "heads"),
    ("dim", SynthSpec, "head_dim"),
    ("steps", SynthSpec, "steps"),
    ("shift", SynthSpec, "shift"),
    ("spread", SynthSpec, "spread"),
    ("seed", SynthSpec, "seed"),
    ("ratio", PruneConfig, "cross_ratio"),
    ("n", PruneConfig, "smoothing"),
    ("recency_bias", PruneConfig, "recency_bias"),
    ("widen", PruneConfig, "widen_to_budget"),
    ("seed", PruneConfig, "seed"),
    ("pool_width", "global-topk", "pool_width"),
    ("baseline_n", "global-topk", "smoothing"),
    ("baseline_n", "accum", "smoothing"),
]
NO_LIBRARY_DEFAULT = {"budget", "recent", "obs", "policy"}


def library_default(owner, name):
    """A dataclass field's default, or a policy option's by policy name."""
    if dataclasses.is_dataclass(owner):
        return {field.name: field.default for field in dataclasses.fields(owner)}[name]
    return policies.option_defaults(owner)[name]


def library_default_id(flag, owner, name):
    """flag-name, with the owner put in for a flag that several owners
    repeat, so that every id is unique."""
    if sum(row[0] == flag for row in LIBRARY_DEFAULTS) == 1:
        return f"{flag}-{name}"
    return f"{flag}-{getattr(owner, '__name__', owner)}.{name}"


class TestLibraryDefaults:
    """SynthSpec, PruneConfig and the baseline policies' options repeat the
    defaults of cli.FLAGS; they must agree, or the library and the CLI
    drift apart."""

    @pytest.mark.parametrize("flag, owner, name", LIBRARY_DEFAULTS,
                             ids=[library_default_id(*row) for row in LIBRARY_DEFAULTS])
    def test_default_matches_table(self, flag, owner, name):
        table = cli._FILE_FLAGS[flag].default
        value = library_default(owner, name)
        assert (value, type(value)) == (table, type(table))

    def test_every_flag_is_placed(self):
        mapped = {flag for flag, _, _ in LIBRARY_DEFAULTS}
        assert mapped.isdisjoint(NO_LIBRARY_DEFAULT)
        assert mapped | NO_LIBRARY_DEFAULT == set(cli._FILE_FLAGS)


SPEC_KEYS = ["head_dim", "heads", "interleave", "layers", "seed", "shift", "spread", "steps",
             "text_len", "visual_len"]
CONFIG_KEYS = ["budget_fraction", "budget_tokens", "cross_ratio", "obs_window", "recency_bias",
               "recent", "seed", "smoothing", "widen_to_budget"]


class TestSidecarSchema:
    """Each command's sidecar keys, nested ones included, pinned."""

    @pytest.mark.parametrize("argv, keys", [
        (["gen-trace", *SPEC_FLAGS],
         ["command", "obs_window", "outputs", "spec", "versions"]),
        (["simulate", *SPEC_FLAGS, *CFG_FLAGS],
         ["command", "config", "outputs", "policy", "policy_options", "spec", "versions"]),
        (["simulate", "--trace", "TRACE", *CFG_FLAGS],
         ["command", "config", "outputs", "policy", "policy_options", "trace", "versions"]),
        (["sweep", "--axis", "cross_ratio", "--grid", "0.5", *SPEC_FLAGS, *CFG_FLAGS],
         ["axis", "command", "config", "grid", "outputs", "policy", "policy_options", "spec",
          "versions"]),
        (["analyze", "TRACE"],
         ["bandwidth", "bins", "command", "epsilon", "obs_window", "outputs", "recent", "trace",
          "versions"]),
        (["compare", "--policies", "csp,accum", "--trace", "TRACE", *CFG_FLAGS],
         ["command", "config", "outputs", "policies", "policy_options", "trace", "versions"]),
    ], ids=["gen-trace", "simulate", "simulate-replay", "sweep", "analyze", "compare"])
    def test_keys(self, tmp_path, trace_path, argv, keys):
        out = tmp_path / "out.csv"
        argv = [str(trace_path) if arg == "TRACE" else arg for arg in argv]
        assert main([*argv, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "out.csv.config.json").read_text())
        assert sorted(sidecar) == keys
        assert sorted(sidecar["versions"]) == ["kvprune", "numpy", "python"]
        if "spec" in sidecar:
            assert sorted(sidecar["spec"]) == SPEC_KEYS
        if "config" in sidecar:
            assert sorted(sidecar["config"]) == CONFIG_KEYS

    @pytest.mark.parametrize("argv, options", [
        (["compare", "--policies", "csp,global-topk,accum,full", "--trace", "TRACE"],
         '{"accum": {"smoothing": 0.0}, "csp": {}, "full": {}, '
         '"global-topk": {"pool_width": 1, "smoothing": 0.0}}'),
        (["simulate", "--policy", "global-topk", *SPEC_FLAGS],
         '{"pool_width": 1, "smoothing": 0.0}'),
    ], ids=["compare", "simulate"])
    def test_policy_options(self, tmp_path, trace_path, argv, options):
        """The options each policy ran with: values, types and key order as
        the file holds them."""
        out = tmp_path / "out.csv"
        argv = [str(trace_path) if arg == "TRACE" else arg for arg in argv]
        assert main([*argv, *CFG_FLAGS, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "out.csv.config.json").read_text())
        assert json.dumps(sidecar["policy_options"]) == options


class TestConfigFile:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return path

    def test_supplies_defaults(self, tmp_path):
        cfg = self.write_config(tmp_path, {
            "text": 8, "visual": 8, "layers": 1, "heads": 2, "dim": 8,
            "steps": 4, "budget": 0.5, "recent": 2, "obs": 4, "policy": "csp",
        })
        out = tmp_path / "steps.csv"
        assert main(["--config", str(cfg), "simulate", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "steps.csv.config.json").read_text())
        assert sidecar["spec"]["text_len"] == 8
        assert sidecar["config"]["budget_fraction"] == 0.5

    def test_flags_override_config(self, tmp_path):
        cfg = self.write_config(tmp_path, {"text": 8, "visual": 8})
        out = tmp_path / "steps.csv"
        assert main(["--config", str(cfg), "simulate", "--text", "12",
                     *SPEC_FLAGS[2:], *CFG_FLAGS, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "steps.csv.config.json").read_text())
        assert sidecar["spec"]["text_len"] == 12

    def test_unknown_key(self, tmp_path, capsys):
        """A misspelt key, or a key such as head_mode that names no flag,
        is a usage error naming the key."""
        for key, value in (("texts", 8), ("head_mode", "averaged")):
            cfg = self.write_config(tmp_path, {key: value})
            assert main(["--config", str(cfg), "simulate",
                         "--out", str(tmp_path / "x.csv")]) == 1
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and f"unknown keys [{key!r}]" in err

    def test_policies_key_rejected(self, tmp_path, trace_path, capsys):
        """compare takes its policy list from --policies only, so a config
        file's "policies" key is unknown rather than silently ignored."""
        cfg = self.write_config(tmp_path, {"policies": "no-such-policy,also-bogus"})
        out = tmp_path / "cmp.csv"
        assert main(["--config", str(cfg), "compare", "--policies", "csp,full",
                     "--trace", str(trace_path), *CFG_FLAGS, "--out", str(out)]) == 1
        assert "unknown keys ['policies']" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_config(self, tmp_path):
        cfg = self.write_config(tmp_path, [1, 2])
        assert main(["--config", str(cfg), "simulate",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("payload, key", [
        ({"widen": "false"}, "widen"),
        ({"budget": "x"}, "budget"),
        ({"seed": 1.5}, "seed"),
        ({"recent": True}, "recent"),
        ({"shift": False}, "shift"),
        ({"policy": "bogus"}, "policy"),
        ({"interleave": "x"}, "interleave"),
        ({"shift": 10**400}, "shift"),
    ])
    def test_value_of_wrong_type(self, tmp_path, payload, key, capsys):
        """A config value must have its flag's type: "false" is no boolean,
        1.5 is no integer and a boolean is no number, so none is coerced.
        A string must be one of its flag's choices, and an integer for a
        float flag must fit a float."""
        cfg = self.write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        assert main(["--config", str(cfg), "simulate", *SPEC_FLAGS, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and repr(key) in err
        assert not out.exists()

    def test_value_types_follow_defaults(self, tmp_path):
        """Integers are numbers for float keys; true/false is a boolean."""
        cfg = self.write_config(tmp_path, {"budget": 1, "widen": True, "shift": 2})
        out = tmp_path / "x.csv"
        assert main(["--config", str(cfg), "simulate", *SPEC_FLAGS, *CFG_FLAGS[2:],
                     "--out", str(out)]) == 0
        text = (tmp_path / "x.csv.config.json").read_text()
        sidecar = json.loads(text)
        assert sidecar["config"]["widen_to_budget"] is True
        assert '"shift": 2.0' in text
        assert sidecar["config"]["budget_fraction"] == 1.0
        assert isinstance(sidecar["config"]["budget_fraction"], float)

    @pytest.mark.parametrize("key", sorted(cli._FILE_FLAGS))
    def test_default_value_changes_nothing(self, tmp_path, monkeypatch, key):
        """A config file holding one key at its default gives the same CSV and
        sidecar as no config file: the table's default, type and flag agree
        with what simulate resolves on its own."""
        outputs = []
        for name, payload in (("plain", None), ("config", {key: cli._FILE_FLAGS[key].default})):
            run_dir = tmp_path / name
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            config = [] if payload is None else [
                "--config", str(self.write_config(run_dir, payload))]
            assert main([*config, "simulate", "--steps", "4", "--out", "steps.csv"]) == 0
            outputs.append([(run_dir / file).read_bytes()
                            for file in ("steps.csv", "steps.csv.config.json")])
        assert outputs[0] == outputs[1]

    def test_analyze_reads_obs_and_recent(self, tmp_path, trace_path):
        """analyze resolves obs and recent like any flag: flag, else config
        file, else its own defaults (every row, 0)."""
        cfg = self.write_config(tmp_path, {"recent": 5, "obs": 3})
        sidecars = {}
        for name, argv in (
            ("default", ["analyze", str(trace_path)]),
            ("config", ["--config", str(cfg), "analyze", str(trace_path)]),
            ("flags", ["--config", str(cfg), "analyze", str(trace_path), "--obs", "2",
                       "--recent", "1"]),
        ):
            out = tmp_path / f"{name}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            sidecar = json.loads((tmp_path / f"{name}.csv.config.json").read_text())
            sidecars[name] = sidecar["obs_window"], sidecar["recent"]
        assert sidecars == {"default": (None, 0), "config": (3, 5), "flags": (2, 1)}
        assert (tmp_path / "config.csv").read_bytes() != (tmp_path / "default.csv").read_bytes()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "simulate",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("content", [b"\xff\xfe{", b'{"seed": 1' + b"0" * 5000 + b"}"],
                             ids=["not-utf8", "int-too-long"])
    def test_undecodable_config(self, tmp_path, content, capsys):
        """Bytes json cannot decode are a data error with one error line."""
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["--config", str(path), "simulate", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and err.count("\n") == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json"), "simulate",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestBadValues:
    """Out-of-range or non-finite parameter values are usage errors: exit 1
    with one error line, not a data error or an escaping exception."""

    @pytest.mark.parametrize("command, flags", [
        ("simulate", ["--budget", "inf"]),
        ("simulate", ["--budget", "1e308"]),
        ("compare", ["--policies", "csp,full", "--budget", "inf"]),
        ("sweep", ["--axis", "budget_fraction", "--grid", "0.3,inf"]),
        ("simulate", ["--n", "inf"]),
        ("simulate", ["--recency-bias", "inf"]),
        ("simulate", ["--policy", "accum", "--baseline-n", "-1"]),
        ("simulate", ["--policy", "global-topk", "--baseline-n", "inf"]),
        ("compare", ["--policies", "csp,accum", "--baseline-n", "-1"]),
        ("compare", ["--policies", "csp,global-topk", "--baseline-n", "inf"]),
        ("simulate", ["--shift", "nan"]),
        ("simulate", ["--shift", "inf"]),
        ("simulate", ["--spread", "inf"]),
    ], ids=["simulate-budget-inf", "simulate-budget-overflow", "compare-budget-inf",
            "sweep-budget-grid-inf", "n-inf", "recency-bias-inf", "accum-baseline-n-negative",
            "global-topk-baseline-n-inf", "compare-accum-baseline-n-negative",
            "compare-global-topk-baseline-n-inf", "shift-nan", "shift-inf", "spread-inf"])
    def test_bad_parameter_value(self, tmp_path, trace_path, command, flags, capsys):
        source = ["--trace", str(trace_path)] if command == "compare" else SPEC_FLAGS
        assert main([command, *source, *CFG_FLAGS, *flags,
                     "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flags", [
        ("gen-trace", ["--spread", "1e300"]),
        ("gen-trace", ["--shift", "1e39"]),
        ("simulate", ["--spread", "1e300", "--policy", "full"]),
        ("sweep", ["--shift", "1e39", "--axis", "cross_ratio", "--grid", "0.5"]),
    ])
    def test_logits_beyond_float32(self, tmp_path, command, flags, capsys):
        """A synthetic decode whose logits float32 cannot hold is a usage
        error: one error line, no warning, and no file, not a trace that
        cannot be read back or a run that reports nothing wrong."""
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, *SPEC_FLAGS, *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spread ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

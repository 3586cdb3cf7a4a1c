"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope", "metr-la"])


class TestCommands:
    def test_datasets_lists_all_seven(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("metr-la", "pems-bay", "pemsd7m", "pemsd3", "pemsd4",
                     "pemsd7", "pemsd8"):
            assert name in out

    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "graph-wavenet" in out
        assert "stsgcn" in out

    def test_run_prints_metrics(self, capsys):
        code = main(["run", "linear", "pemsd8", "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MAE" in out
        assert "params=" in out

    def test_benchmark_and_save(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        code = main(["benchmark", "--models", "linear", "last-value",
                     "--datasets", "pemsd8", "--epochs", "1",
                     "--repeats", "1", "--max-batches", "2",
                     "--save", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig.1" in out
        assert "Table III" in out
        payload = json.loads(path.read_text())
        assert len(payload) == 2

    def test_report_renders_saved_results(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        main(["benchmark", "--models", "linear", "last-value",
              "--datasets", "pemsd8", "--epochs", "1", "--repeats", "1",
              "--max-batches", "2", "--save", str(path)])
        capsys.readouterr()
        assert main(["report", str(path), "--table", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert main(["report", str(path), "--table", "fig2",
                     "--dataset", "pemsd8"]) == 0
        assert "difficult" in capsys.readouterr().out

    def test_report_leaderboard(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        main(["benchmark", "--models", "linear", "last-value",
              "historical-average", "--datasets", "pemsd8", "metr-la",
              "--epochs", "1", "--repeats", "1", "--max-batches", "1",
              "--save", str(path)])
        capsys.readouterr()
        assert main(["report", str(path), "--table", "leaderboard"]) == 0
        out = capsys.readouterr().out
        assert "Friedman" in out
        assert "rank@15m" in out

    def test_profile_prints_census(self, capsys):
        assert main(["profile", "stg2seq", "--dataset", "pemsd8",
                     "--batch-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "op census" in out
        assert "matmul" in out
        assert "TOTAL" in out

    def test_simulate_writes_npz(self, capsys, tmp_path):
        path = tmp_path / "world.npz"
        assert main(["simulate", "pemsd8", str(path)]) == 0
        assert path.exists()
        from repro.datasets import load_saved_dataset
        loaded = load_saved_dataset(path)
        assert loaded.spec.name == "pemsd8"


class TestTraceCommands:
    def test_run_with_trace_writes_trace_and_manifest(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(["run", "linear", "pemsd8", "--epochs", "1",
                     "--trace", str(trace)])
        assert code == 0
        assert trace.exists()
        manifest = tmp_path / "run.json"
        payload = json.loads(manifest.read_text())
        assert payload["model"] == "linear"
        assert payload["wall_seconds"] > 0
        from repro.obs import read_trace, validate_trace
        assert validate_trace(trace) == []
        kinds = [e.kind for e in read_trace(trace)]
        assert "epoch_end" in kinds and "run_finished" in kinds
        assert "Trace written to" in capsys.readouterr().out

    def test_run_quiet_suppresses_epoch_lines(self, capsys):
        assert main(["run", "linear", "pemsd8", "--epochs", "1",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "epoch 1/1" not in out
        assert "MAE" in out                      # summary still printed

    def test_run_verbose_prints_epoch_lines_by_default(self, capsys):
        assert main(["run", "linear", "pemsd8", "--epochs", "1"]) == 0
        assert "epoch 1/1" in capsys.readouterr().out

    def test_trace_summarize_renders_report(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        main(["run", "linear", "pemsd8", "--epochs", "1", "--quiet",
              "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Trace [linear @ pemsd8, seed 0]" in out
        assert "val MAE" in out
        assert "hardMAE" in out

    def test_trace_summarize_rejects_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not json\n")
        assert main(["trace", "summarize", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_trace_summarize_missing_file(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        trace = tmp_path_factory.mktemp("cli-trace") / "trace.jsonl"
        main(["run", "linear", "pemsd8", "--epochs", "1", "--quiet",
              "--trace", str(trace)])
        return trace

    def test_trace_spans_renders_table(self, capsys, traced):
        assert main(["trace", "spans", str(traced)]) == 0
        out = capsys.readouterr().out
        assert "root(s)" in out
        assert "experiment/run" in out
        assert "train/batch" in out
        assert "self s" in out

    def test_trace_export_chrome(self, capsys, traced, tmp_path):
        out_path = tmp_path / "timeline.json"
        assert main(["trace", "export", str(traced), "--format", "chrome",
                     "--output", str(out_path)]) == 0
        assert "perfetto" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert "X" in phases and "i" in phases
        assert payload["displayTimeUnit"] == "ms"

    def test_trace_export_default_output_path(self, capsys, traced):
        assert main(["trace", "export", str(traced)]) == 0
        default = traced.with_suffix(".jsonl.chrome.json")
        assert default.exists()

    def test_trace_tolerates_unknown_event_kinds(self, capsys, traced,
                                                 tmp_path):
        """A trace containing a foreign event kind summarizes with a
        warning instead of hard-failing (forward compatibility)."""
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(traced.read_text()
                         + '{"event": "from_the_future", "t": 1.0}\n')
        assert main(["trace", "summarize", str(mixed)]) == 0
        captured = capsys.readouterr()
        assert "Trace [linear @ pemsd8, seed 0]" in captured.out
        assert "unknown event kind 'from_the_future'" in captured.err
        assert "line skipped" in captured.err

    def test_benchmark_trace_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "traces"
        code = main(["benchmark", "--models", "linear",
                     "--datasets", "pemsd8", "--epochs", "1",
                     "--repeats", "2", "--max-batches", "2",
                     "--trace", str(out_dir)])
        assert code == 0
        for seed in range(2):
            assert (out_dir / f"linear_pemsd8_seed{seed}.jsonl").exists()
            assert (out_dir / f"linear_pemsd8_seed{seed}.run.json").exists()


class TestCacheCommands:
    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        directory = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
        return directory

    def test_ls_empty(self, capsys, cache_dir):
        assert main(["cache", "ls"]) == 0
        assert "cache empty" in capsys.readouterr().out

    def test_ls_lists_entries(self, capsys, cache_dir):
        from repro.datasets import load_dataset
        load_dataset("metr-la", scale="ci")
        assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "metr-la" in out
        assert "1 entry" in out

    def test_info_renders_entry(self, capsys, cache_dir):
        from repro.datasets import DatasetCache, load_dataset
        load_dataset("pemsd8", scale="ci")
        (entry,) = DatasetCache().entries()
        assert main(["cache", "info", entry.key]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "pemsd8"
        assert "speed" in payload["arrays"]

    def test_info_ambiguous_prefix(self, capsys, cache_dir):
        from repro.datasets import DatasetCache, load_dataset
        for seed_offset in (0, 1):
            load_dataset("metr-la", scale="ci", seed_offset=seed_offset)
        first, second = (entry.key for entry in DatasetCache().entries())
        assert main(["cache", "info", "metr"]) == 1
        err = capsys.readouterr().err
        assert first in err and second in err
        assert main(["cache", "info", second[:8]]) == 0
        assert json.loads(capsys.readouterr().out)["key"] == second

    def test_info_unknown_key(self, capsys, cache_dir):
        assert main(["cache", "info", "feedfacefeedface"]) == 1
        assert "no cache entry" in capsys.readouterr().err

    def test_clear_removes_everything(self, capsys, cache_dir):
        from repro.datasets import DatasetCache, load_dataset
        load_dataset("metr-la", scale="ci")
        assert main(["cache", "clear"]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert DatasetCache().entries() == []

"""The ``python -m repro.scenarios`` CLI: worker sharding, corpus, replay."""

from __future__ import annotations

import json

import pytest

from repro.scenarios.__main__ import main


class TestSuiteRuns:
    def test_sharded_suite_run_writes_the_bench_artifact(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        rc = main(
            [
                "--seed", "42",
                "--count", "4",
                "--workers", "2",
                "--corpus", str(tmp_path / "corpus"),
                "--bench-out", str(bench),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario suite" in out
        assert "2 worker(s)" in out
        payload = json.loads(bench.read_text(encoding="utf-8"))
        assert payload["workers"] == 2
        assert len(payload["shards"]) == 2
        assert payload["ok"] is True

    def test_failing_suite_exits_nonzero_and_pins_the_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        rc = main(
            [
                "--seed", "42",
                "--count", "2",
                "--attack-ratio", "1.0",
                "--matrix", "sop,none",
                "--workers", "2",
                "--corpus", str(corpus),
                "--bench-out", "",
            ]
        )
        assert rc == 1
        assert list(corpus.glob("*.json")), "failing specs must be pinned"
        assert "pinned failing spec" in capsys.readouterr().out

    def test_no_corpus_disables_pinning(self, tmp_path):
        corpus = tmp_path / "corpus"
        rc = main(
            [
                "--seed", "42",
                "--count", "2",
                "--attack-ratio", "1.0",
                "--matrix", "sop,none",
                "--no-corpus",
                "--corpus", str(corpus),
                "--bench-out", "",
            ]
        )
        assert rc == 1
        assert not corpus.exists()

    def test_json_report_mode(self, tmp_path, capsys):
        rc = main(["--seed", "42", "--count", "2", "--json", "--bench-out", ""])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2

    def test_steal_chunk_flag(self, capsys):
        rc = main(
            [
                "--seed", "42",
                "--count", "4",
                "--workers", "2",
                "--steal-chunk", "1",
                "--no-corpus",
                "--json",
                "--bench-out", "",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steal_chunk"] == 1
        assert "warm_ship" not in payload
        # Four single-index chunks were pulled across the two workers.
        assert sum(shard["chunks_stolen"] for shard in payload["shards"]) == 4

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_negative_steal_chunk_is_a_usage_error(self, workers, capsys):
        # Rejected by argparse before any worker starts, whatever the count.
        argv = ["--seed", "1", "--count", "3", "--workers", workers,
                "--steal-chunk", "-3", "--no-corpus", "--bench-out", ""]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--steal-chunk: must be 0 (auto) or positive, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--no-warm-ship", "--ast-walker"])
    def test_removed_engine_and_shipping_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--count", "1", "--no-corpus", "--bench-out", "", flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReplay:
    def test_replay_spec_emits_clean_json_on_stdout(self, capsys):
        rc = main(["--replay", "42:0", "--spec"])
        assert rc == 0
        captured = capsys.readouterr()
        spec = json.loads(captured.out)  # stdout is only the spec
        assert spec["replay"] == "42:0"
        assert "[ok]" in captured.err  # the verdict went to stderr

    def test_replay_without_spec_prints_the_verdict(self, capsys):
        rc = main(["--replay", "42:0"])
        assert rc == 0
        assert "[ok]" in capsys.readouterr().out

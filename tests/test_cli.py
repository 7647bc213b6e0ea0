"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "data.libsvm"
    code = main(
        ["generate", "--preset", "rcv1", "--scale", "0.05", "--out", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture()
def model_file(dataset_file, tmp_path):
    path = tmp_path / "model.json"
    code = main(
        [
            "train",
            str(dataset_file),
            "--model",
            str(path),
            "--trees",
            "3",
            "--depth",
            "4",
            "--learning-rate",
            "0.3",
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_libsvm(self, dataset_file):
        lines = dataset_file.read_text().strip().splitlines()
        assert len(lines) > 100
        assert lines[0].split()[0] in ("0", "1")

    def test_all_presets(self, tmp_path):
        for preset in ("rcv1", "synthesis", "gender", "lowdim"):
            out = tmp_path / f"{preset}.libsvm"
            assert main(
                ["generate", "--preset", preset, "--scale", "0.02", "--out", str(out)]
            ) == 0
            assert out.exists()


class TestTrain:
    def test_model_is_valid_json(self, model_file):
        payload = json.loads(model_file.read_text())
        assert payload["format"] == "repro-dimboost-gbdt"
        assert len(payload["trees"]) == 3

    def test_distributed_training(self, dataset_file, tmp_path):
        model_path = tmp_path / "dist.json"
        code = main(
            [
                "train",
                str(dataset_file),
                "--model",
                str(model_path),
                "--system",
                "dimboost",
                "--workers",
                "3",
                "--servers",
                "3",
                "--trees",
                "2",
                "--depth",
                "3",
            ]
        )
        assert code == 0
        assert model_path.exists()

    def test_bad_loss_rejected(self, dataset_file, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    str(dataset_file),
                    "--model",
                    str(tmp_path / "m.json"),
                    "--loss",
                    "hinge",
                ]
            )


class TestPredict:
    def test_predictions_file(self, model_file, dataset_file, tmp_path):
        out = tmp_path / "scores.txt"
        code = main(["predict", str(model_file), str(dataset_file), "--out", str(out)])
        assert code == 0
        scores = np.loadtxt(out)
        assert len(scores) == len(dataset_file.read_text().strip().splitlines())
        assert np.all((scores >= 0) & (scores <= 1))

    def test_predictions_stdout(self, model_file, dataset_file, capsys):
        code = main(["predict", str(model_file), str(dataset_file)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) > 100


    def test_n_processes_below_one_exits_2(self, model_file, dataset_file, capsys):
        code = main(
            ["predict", str(model_file), str(dataset_file), "--n-processes", "0"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "n_processes must be >= 1, got 0" in captured.err
        assert captured.out == ""


class TestEvaluate:
    def test_metrics_printed(self, model_file, dataset_file, capsys):
        code = main(["evaluate", str(model_file), str(dataset_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "error rate" in out
        assert "AUC" in out

    def test_missing_model(self, dataset_file, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["evaluate", str(tmp_path / "nope.json"), str(dataset_file)])


class TestCompare:
    def test_subset_of_systems(self, dataset_file, capsys):
        code = main(
            [
                "compare",
                str(dataset_file),
                "--workers",
                "2",
                "--systems",
                "xgboost,dimboost",
                "--trees",
                "2",
                "--depth",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "xgboost" in out
        assert "dimboost speedup vs xgboost" in out


class TestServe:
    def test_missing_model_is_an_error(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "nope.json")])
        assert code == 2
        assert "failed to load artifact" in capsys.readouterr().err

    @pytest.mark.serving
    def test_serve_verb_end_to_end(self, model_file, capsys):
        """`repro serve` answers ping/score/shutdown over its socket."""
        import socket
        import threading
        import time

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        codes: list[int] = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(["serve", str(model_file), "--port", str(port)])
            )
        )
        thread.start()
        conn = None
        try:
            for _ in range(200):
                try:
                    conn = socket.create_connection(
                        ("127.0.0.1", port), timeout=0.5
                    )
                    break
                except OSError:
                    time.sleep(0.025)
            assert conn is not None, "server never came up"
            stream = conn.makefile("rw", encoding="utf-8")

            def ask(payload):
                stream.write(json.dumps(payload) + "\n")
                stream.flush()
                return json.loads(stream.readline())

            ping = ask({"op": "ping"})
            assert ping["ok"] and ping["version"] == 1
            score = ask({"features": [[0, 1.0]]})
            assert score["ok"] and score["batch_size"] >= 1
            assert ask({"op": "shutdown"}) == {"ok": True}
        finally:
            if conn is not None:
                conn.close()
            thread.join(timeout=15)
        assert not thread.is_alive()
        assert codes == [0]
        assert "serving NDJSON" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "model.json"])
        assert args.max_batch_rows == 256
        assert args.queue_limit == 1024
        assert args.deadline_ms is None
        assert args.port == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "d.libsvm", "--model", "m.json", "--parallel-backend", "process"],
            ["serve", "m.json", "--n-processes", "2"],
        ],
        ids=["train-parallel-backend", "serve-n-processes"],
    )
    def test_removed_pool_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_compression_block_flag_exits_2(self, capsys):
        """The codec keeps one scale per feature histogram; the block
        size is no flag any more."""
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "d.libsvm", "--model", "m", "--compression-block", "10"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_speed_jitter_requires_system(self, dataset_file, tmp_path, capsys):
        code = main(
            [
                "train",
                str(dataset_file),
                "--model",
                str(tmp_path / "m.json"),
                "--trees",
                "1",
                "--speed-jitter",
                "0.2",
            ]
        )
        assert code == 2
        assert "--speed-jitter require" in capsys.readouterr().err

"""Command-line interface: exit codes, outputs, and stage wiring."""

import json
import os

import numpy as np
import pytest

from orcakit import pipeline
from orcakit.bundles import load_bundle, save_bundle, synth_blobs2d, synth_spectra1d
from orcakit.cli import main
from orcakit.models import ParameterSet


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasics:
    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "blobs2d", "--out", "x", "--bogus"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["pretrain", "align"])
    def test_seed_flag_only_where_read(self, capsys, command):
        # neither command reads the top-level cache-draw seed
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "cfg.json", "--seed", "1"])
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err

    def test_align_rejects_otdd_gaussian(self, capsys):
        # `orcakit distance` still takes it; alignment has no gradient for it
        with pytest.raises(SystemExit) as exc:
            main(["align", "--config", "cfg.json", "--metric", "otdd-gaussian"])
        assert exc.value.code == 1
        assert "otdd-gaussian" in capsys.readouterr().err

    def test_contract_error_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "synth", "--kind", "blobs2d",
                               "--classes", "9", "--out", str(tmp_path / "b"))
        assert code == 1
        assert "error" in err


class TestSynthAndDistance:
    def test_synth_writes_bundle(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "synth", "--kind", "spectra1d", "--n", "16",
                               "--length", "32", "--seed", "3",
                               "--out", str(tmp_path / "b"))
        assert code == 0
        assert json.loads(out)["n"] == 16
        b = load_bundle(tmp_path / "b")
        assert b.features.shape == (16, 1, 32)

    @pytest.mark.parametrize("metric", ["otdd", "otdd-gaussian", "otdd-sub",
                                        "mmd", "euclidean"])
    def test_distance_metrics(self, capsys, tmp_path, metric):
        save_bundle(synth_blobs2d(n=16, size=8, seed=0), tmp_path / "a")
        save_bundle(synth_blobs2d(n=16, size=8, seed=1), tmp_path / "b")
        code, out, _ = run_cli(capsys, "distance", "--metric", metric,
                               "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"))
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] >= 0

    def test_distance_to_a_checkpoint_exits_one(self, capsys, tmp_path):
        save_bundle(synth_blobs2d(n=16, size=8, seed=0), tmp_path / "a")
        ps = ParameterSet()
        ps.add("w", np.ones((2, 3)))
        ps.save(tmp_path / "ck")
        code, _, err = run_cli(capsys, "distance", "--metric", "mmd",
                               "--a", str(tmp_path / "a"), "--b", str(tmp_path / "ck"))
        assert code == 1
        assert err.startswith(f"error: bundle manifest {tmp_path / 'ck'}")

    def test_distance_self_near_zero(self, capsys, tmp_path):
        save_bundle(synth_blobs2d(n=16, size=8, seed=0), tmp_path / "a")
        code, out, _ = run_cli(capsys, "distance", "--metric", "otdd",
                               "--eps", "1e-3",
                               "--a", str(tmp_path / "a"), "--b", str(tmp_path / "a"))
        assert code == 0
        assert json.loads(out)["value"] < 1e-2


class TestStages:
    @pytest.fixture()
    def workdir(self, tmp_path):
        save_bundle(synth_blobs2d(n=32, size=8, seed=0), tmp_path / "src")
        save_bundle(synth_spectra1d(n=24, length=32, seed=1), tmp_path / "tgt")
        save_bundle(synth_spectra1d(n=16, length=32, seed=2), tmp_path / "val")
        cfg = {
            "out_dir": str(tmp_path / "out"),
            "paths": {"source_bundle": str(tmp_path / "src"),
                      "target_bundle": str(tmp_path / "tgt"),
                      "val_bundle": str(tmp_path / "val")},
            "model": {"layers": 1, "heads": 2, "embed_dim": 16, "seq_len": 16,
                      "source_patch": 2},
            "pretrain": {"epochs": 2, "batch_size": 16},
            "align": {"epochs": 1, "batch_size": 16},
            "refine": {"epochs": 1, "batch_size": 16},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        return tmp_path, str(cfg_path)

    def test_pretrain_cache_align_refine(self, capsys, workdir):
        tmp_path, cfg = workdir
        code, out, _ = run_cli(capsys, "pretrain", "--config", cfg)
        assert code == 0 and "checkpoint" in json.loads(out)
        code, out, _ = run_cli(capsys, "cache-source", "--config", cfg, "--n", "32")
        assert code == 0 and json.loads(out)["rows"] == 32
        code, out, _ = run_cli(capsys, "align", "--config", cfg)
        assert code == 0
        rec = json.loads(out)
        assert os.path.exists(os.path.join(rec["aligned_embedder"], "manifest.json"))
        code, out, _ = run_cli(capsys, "refine", "--config", cfg, "--mode", "orca")
        assert code == 0
        assert "zero_one_error" in json.loads(out)["final_metrics"]

    def test_pipeline_writes_report(self, capsys, workdir):
        tmp_path, cfg = workdir
        code, out, _ = run_cli(capsys, "pipeline", "--config", cfg,
                               "--mode", "naive-ft")
        assert code == 0
        report = json.load(open(tmp_path / "out" / "report.json"))
        assert report["mode"] == "naive_ft"
        assert (tmp_path / "out" / "curves.csv").exists()

    def test_refine_missing_checkpoint_exits_one(self, capsys, workdir):
        tmp_path, cfg = workdir
        code, _, err = run_cli(capsys, "refine", "--config", cfg,
                               "--mode", "naive-ft")
        assert code == 1 and "error" in err

    def test_bad_stage_value_exits_one(self, capsys, workdir):
        tmp_path, cfg = workdir
        data = json.loads((tmp_path / "cfg.json").read_text())
        data["refine"]["batch_size"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "pretrain", "--config", str(bad))
        assert code == 1 and "batch_size" in err
        assert not (tmp_path / "out").exists()
        # a flag override is checked at load too, before the missing checkpoint
        code, _, err = run_cli(capsys, "refine", "--config", cfg, "--mode", "naive-ft",
                               "--train-fraction", "0")
        assert code == 1 and "train_fraction" in err

    @pytest.mark.parametrize("argv,files,says", [
        (["cache-source", "--config", "{cfg}", "--n", "0"], {}, "cache size"),
        (["cache-source", "--config", "{cfg}", "--n", "-3"], {}, "cache size"),
        (["profile", "--errors", "{tmp}/missing.json", "--out", "{tmp}/p"], {},
         "{tmp}/missing.json"),
        (["profile", "--errors", "{tmp}/e.json", "--out", "{tmp}/p"],
         {"e.json": '{"methods": ["a"]}'}, "{tmp}/e.json"),
        (["profile", "--errors", "{tmp}/e.json", "--out", "{tmp}/p"],
         {"e.json": "errors,a\n1,2\n"}, "{tmp}/e.json"),
        (["ingest-csv", "--csv", "{tmp}/missing.csv", "--out", "{tmp}/b"], {},
         "{tmp}/missing.csv"),
    ], ids=["cache-n-zero", "cache-n-negative", "profile-missing", "profile-no-errors",
            "profile-not-json", "csv-missing"])
    def test_bad_outside_input_exits_one(self, capsys, workdir, argv, files, says):
        tmp_path, cfg = workdir
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        if argv[0] == "cache-source":
            assert run_cli(capsys, "pretrain", "--config", cfg)[0] == 0
        code, _, err = run_cli(capsys, *(a.format(cfg=cfg, tmp=tmp_path) for a in argv))
        assert code == 1
        assert err.startswith("error: ") and says.format(tmp=tmp_path) in err

    def test_cache_source_defaults_to_the_whole_source(self, capsys, workdir):
        tmp_path, cfg = workdir
        run_cli(capsys, "pretrain", "--config", cfg)
        code, out, _ = run_cli(capsys, "cache-source", "--config", cfg)
        assert code == 0
        out = json.loads(out)
        assert out["rows"] == 32 and out["flags"] == []

    def test_wrong_value_type_exits_one(self, capsys, workdir):
        tmp_path, cfg = workdir
        data = json.loads((tmp_path / "cfg.json").read_text())
        data["refine"]["batch_size"] = "4"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "pretrain", "--config", str(bad))
        assert code == 1
        assert err.startswith("error: refine.batch_size: expected int")

    def test_non_finite_loss_exits_two_without_checkpoint(self, capsys, workdir,
                                                          monkeypatch):
        tmp_path, cfg = workdir
        monkeypatch.setattr(pipeline, "softmax_ce",
                            lambda logits, *a: (float("nan"), np.zeros_like(logits)))
        code, _, err = run_cli(capsys, "pretrain", "--config", cfg)
        assert code == 2 and err.startswith("error: non-finite loss nan")
        assert not (tmp_path / "out" / "checkpoint").exists()

    def test_sweep(self, capsys, workdir):
        tmp_path, cfg = workdir
        run_cli(capsys, "pretrain", "--config", cfg)
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg,
                               "--fractions", "0.5,1.0", "--modes", "naive-ft,scratch",
                               "--seeds", "0")
        assert code == 0
        rows = json.load(open(tmp_path / "out" / "sweep.json"))
        assert len(rows) == 4
        assert {r["mode"] for r in rows} == {"naive_ft", "scratch"}

    @pytest.mark.parametrize("mode,code", [("scratch", 0), ("naive-ft", 1)])
    def test_sweep_reads_the_checkpoint_only_if_a_mode_uses_it(self, capsys, workdir,
                                                               mode, code):
        tmp_path, cfg = workdir
        got, _, err = run_cli(capsys, "sweep", "--config", cfg, "--modes", mode,
                              "--fractions", "1.0", "--seeds", "0")
        assert got == code, err
        if code:
            assert err.startswith("error: cannot read checkpoint")
        assert not (tmp_path / "out" / "checkpoint").exists()

    def test_non_integer_thread_count_exits_one(self, capsys, workdir, monkeypatch):
        tmp_path, cfg = workdir
        monkeypatch.setenv("ORCAKIT_THREADS", "two")
        code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--modes", "scratch",
                               "--fractions", "1.0", "--seeds", "0")
        assert code == 1
        assert err.startswith("error: ORCAKIT_THREADS must be an integer, got 'two'")

    @pytest.mark.parametrize("flag,value", [
        ("--modes", "naive-ft,warp"),
        ("--fractions", "abc"),
        ("--seeds", "x"),
    ])
    def test_sweep_bad_list_value_exits_one(self, capsys, workdir, flag, value):
        # no checkpoint exists, so only the list check can name the value
        tmp_path, cfg = workdir
        code, _, err = run_cli(capsys, "sweep", "--config", cfg, flag, value)
        assert code == 1
        assert err.startswith(f"error: {flag}: cannot read ")
        assert not (tmp_path / "out").exists()


class TestProfileAndCSV:
    def test_profile_command(self, capsys, tmp_path):
        errs = tmp_path / "errors.json"
        errs.write_text(json.dumps({"errors": [[1.0, 2.0], [2.0, 1.0]],
                                    "methods": ["a", "b"]}))
        code, out, _ = run_cli(capsys, "profile", "--errors", str(errs),
                               "--out", str(tmp_path / "prof"))
        assert code == 0
        lines = open(tmp_path / "prof" / "profiles.csv").read().splitlines()
        assert lines[0] == "method,tau,rho"
        first = lines[1].split(",")
        assert first[0] == "a" and float(first[2]) == 0.5

    def test_ingest_csv(self, capsys, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,label\n0,a\n2,b\n")
        code, out, _ = run_cli(capsys, "ingest-csv", "--csv", str(p),
                               "--out", str(tmp_path / "b"))
        assert code == 0
        b = load_bundle(tmp_path / "b")
        assert b.features[:, 0, 0] == pytest.approx([-1.0, 1.0])

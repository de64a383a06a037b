"""End-to-end CLI behavior: exit codes, config precedence, artifacts."""

import json
import shlex
import sys

import numpy as np
import pytest

from igprobe import verify
from igprobe.cli import main
from igprobe.codec import degrade_jpeg
from igprobe.data import gen_synthetic
from igprobe.imgio import read_image, write_image
from igprobe.model import load_model

TINY = ["--synthetic", "--classes", "2", "--per-class", "1", "--side", "8",
        "--hidden", "8", "--embed-dim", "8", "--epochs", "1", "--batch", "2"]
# The mock gradient provider, scoring TINY's 8x8 two-class images over the wire.
MOCK = ["--provider", f"{shlex.quote(sys.executable)} -m igprobe.mock_provider "
                      "--side 8 --classes 2 --seed 1"]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sample_ppm(tmp_path):
    img = gen_synthetic(3, classes=2, per_class=1, side=8).items[0].image
    path = tmp_path / "input.ppm"
    write_image(path, img)
    return path


# ---------------------------------------------------------------- exit codes


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_usage_error_is_exit_2(tmp_path, capsys):
    # two dataset sources at once
    code = run(["sweep", "--synthetic", "--data", str(tmp_path), "--train-fresh",
                "--out", str(tmp_path / "o")])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_missing_model_source_is_exit_2(tmp_path, capsys):
    code = run(["sweep", *TINY, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "exactly one model source" in capsys.readouterr().err


def test_value_error_is_exit_1(tmp_path, capsys):
    ascii_ppm = tmp_path / "ascii.ppm"
    ascii_ppm.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    code = run(["degrade", "--quality", "50", "--in", ascii_ppm,
                "--out", tmp_path / "out.ppm"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["degrade", "--quality", "0"],
    ["degrade", "--quality", "101"],
    ["sweep", *TINY, "--train-fresh", "--qualities", "original,0"],
])
def test_out_of_range_quality_is_usage_error(tmp_path, sample_ppm, capsys, argv):
    # rejected while the config is read, before any image is degraded or model trained
    if argv[0] == "degrade":
        argv = [*argv, "--in", sample_ppm]
    code = run([*argv, "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error: bad value for" in err and "must be in [1, 100]" in err
    assert not (tmp_path / "o").exists()


def test_missing_input_file_is_exit_1(tmp_path, capsys):
    code = run(["degrade", "--quality", "50", "--in", tmp_path / "ghost.ppm",
                "--out", tmp_path / "out.ppm"])
    assert code == 1


# ---------------------------------------------------------------- degrade


def test_degrade_writes_codec_output(tmp_path, sample_ppm):
    out = tmp_path / "degraded.ppm"
    assert run(["degrade", "--quality", "50", "--in", sample_ppm, "--out", out]) == 0
    want = tmp_path / "want.ppm"
    write_image(want, degrade_jpeg(read_image(sample_ppm), 50))
    assert out.read_bytes() == want.read_bytes()


def test_degrade_original_is_lossless_roundtrip(tmp_path, sample_ppm):
    out = tmp_path / "same.ppm"
    assert run(["degrade", "--quality", "original", "--in", sample_ppm,
                "--out", out]) == 0
    assert out.read_bytes() == sample_ppm.read_bytes()


# ---------------------------------------------------------------- train


def test_train_writes_loadable_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["train", *TINY, "--seed", "4", "--out", out]) == 0
    model = load_model(out / "checkpoint.json")
    assert model.input_shape == (8, 8, 3)
    assert model.num_classes == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["subcommand"] == "train"
    assert "trained on 2 images" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_train_divergence_exits_1_without_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["train", "--synthetic", "--classes", "2", "--per-class", "4", "--side", "8",
                "--hidden", "8", "--embed-dim", "8", "--epochs", "3", "--batch", "2",
                "--lr", "1e300", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert "epoch" in err and "layer" in err
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("doc,message", [
    ([], "must be an object, got list"),
    ({"format": "igprobe-scorer", "version": 1}, "has no 'layers' field"),
], ids=["list", "no-layers"])
def test_malformed_checkpoint_is_exit_1(tmp_path, capsys, doc, message):
    ckpt = tmp_path / "c.json"
    ckpt.write_text(json.dumps(doc))
    assert run(["sweep", *TINY, "--checkpoint", ckpt, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


# ---------------------------------------------------------------- sweep & report


def test_sweep_train_fresh_artifacts(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run(["sweep", *TINY, "--train-fresh", "--seed", "4",
                "--qualities", "original,50", "--out", out]) == 0
    for name in ("precision.csv", "table.csv", "table.md", "chart.svg",
                 "manifest.json"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert stdout.startswith("model,Original,Quality 50\n")
    assert (out / "precision.csv").read_text().startswith("model,quality,score\n")


def test_sweep_from_checkpoint_row_named_after_file(tmp_path):
    ckpt_dir = tmp_path / "t"
    assert run(["train", *TINY, "--seed", "4", "--out", ckpt_dir]) == 0
    out = tmp_path / "s"
    assert run(["sweep", *TINY, "--checkpoint", ckpt_dir / "checkpoint.json",
                "--qualities", "original,50", "--out", out]) == 0
    assert "checkpoint,original," in (out / "precision.csv").read_text()


def test_sweep_byte_identical_across_runs(tmp_path):
    out = tmp_path / "rep"
    argv = ["sweep", *TINY, "--train-fresh", "--seed", "4",
            "--qualities", "original,50", "--out", out]
    assert run(argv) == 0
    first = {n: (out / n).read_bytes()
             for n in ("precision.csv", "table.csv", "table.md",
                       "chart.svg", "manifest.json")}
    assert run(argv) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_report_rerenders_from_csv(tmp_path):
    sweep_out = tmp_path / "sweep"
    assert run(["sweep", *TINY, "--train-fresh", "--seed", "4",
                "--qualities", "original,50",
                "--out", sweep_out]) == 0
    report_out = tmp_path / "report"
    assert run(["report", "--from", sweep_out, "--out", report_out]) == 0
    assert (report_out / "chart.svg").read_bytes() == (sweep_out / "chart.svg").read_bytes()
    assert (report_out / "table.csv").read_bytes() == (sweep_out / "table.csv").read_bytes()


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1.7", "-0.1"])
def test_report_rejects_score_outside_unit_interval(tmp_path, capsys, score):
    source = tmp_path / "precision.csv"
    source.write_text("model,quality,score\nm,original,1.0\n"
                      f"m,50,0.5\nm,25,{score}\n")
    out = tmp_path / "report"
    assert run(["report", "--from", source, "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"line 4: score '{score}' for model 'm' at quality 25 is not in [0, 1]" in err
    assert not out.exists()


def test_report_rejects_short_row(tmp_path, capsys):
    source = tmp_path / "precision.csv"
    source.write_text("model,quality,score\nm,original,1.0\nm,50\n")
    out = tmp_path / "report"
    assert run(["report", "--from", source, "--out", out]) == 1
    assert "line 3: expected 3 cells, got ['m', '50']" in capsys.readouterr().err
    assert not out.exists()


def test_report_needs_source(tmp_path, capsys):
    assert run(["report", "--out", tmp_path / "r"]) == 2
    assert "--from" in capsys.readouterr().err


# ---------------------------------------------------------------- attribute & overlay


def test_attribute_writes_csv_and_overlays(tmp_path):
    out = tmp_path / "att"
    assert run(["attribute", *TINY, "--train-fresh", "--seed", "4",
                "--qualities", "original,75,50", "--steps", "4",
                "--out", out]) == 0
    text = (out / "attributions.csv").read_text()
    assert text.startswith("id,true,predicted_original,predicted_75,predicted_50,"
                           "score_original,score_75,score_50,ig_75,ig_50\n")
    # default overlay quality is the lowest numeric one
    meta = json.loads((out / "overlays.json").read_text())
    assert len(meta) == 2
    for entry in meta:
        assert entry["quality"] == 50
        for mode in ("negative", "positive", "both"):
            fname = f"{entry['id']}_q50_{mode}.ppm"
            assert entry["files"][mode] == fname
            assert (out / fname).exists()


def test_attribute_rejects_overlay_quality_outside_sweep(tmp_path, capsys):
    code = run(["attribute", *TINY, "--train-fresh",
                "--qualities", "original,50", "--overlay-quality", "25",
                "--steps", "2", "--out", tmp_path / "o"])
    assert code == 2
    assert "--overlay-quality 25" in capsys.readouterr().err


def test_overlay_single_image(tmp_path, sample_ppm):
    ckpt_dir = tmp_path / "t"
    assert run(["train", *TINY, "--seed", "4", "--out", ckpt_dir]) == 0
    out = tmp_path / "ov"
    assert run(["overlay", "--in", sample_ppm, "--label", "0",
                "--checkpoint", ckpt_dir / "checkpoint.json",
                "--quality", "25", "--steps", "4", "--out", out]) == 0
    meta = json.loads((out / "overlay.json").read_text())
    assert meta["quality"] == "25"
    assert set(meta["files"]) == {"negative", "positive", "both"}
    for fname in meta["files"].values():
        img = read_image(out / fname)
        assert img.shape == (8, 8, 3)
    assert "ig_sum" in meta and "completeness_gap" in meta


def test_sweep_over_provider(tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", *TINY, *MOCK, "--qualities", "original,50", "--out", out]) == 0
    for name in ("precision.csv", "table.csv", "table.md", "chart.svg", "manifest.json"):
        assert (out / name).exists(), name
    assert "provider,original," in (out / "precision.csv").read_text()


def test_attribute_over_provider(tmp_path):
    out = tmp_path / "att"
    assert run(["attribute", *TINY, *MOCK, "--qualities", "original,75,50",
                "--steps", "4", "--out", out]) == 0
    assert (out / "attributions.csv").read_text().count("\n") == 3
    meta = json.loads((out / "overlays.json").read_text())
    assert len(meta) == 2
    for entry in meta:
        for fname in entry["files"].values():
            assert read_image(out / fname).shape == (8, 8, 3)
    assert (out / "manifest.json").exists()


def test_overlay_over_provider(tmp_path, sample_ppm):
    out = tmp_path / "ov"
    assert run(["overlay", "--in", sample_ppm, "--label", "0", *MOCK,
                "--quality", "25", "--steps", "4", "--out", out]) == 0
    meta = json.loads((out / "overlay.json").read_text())
    assert set(meta["files"]) == {"negative", "positive", "both"}
    for fname in meta["files"].values():
        assert read_image(out / fname).shape == (8, 8, 3)
    assert (out / "manifest.json").exists()


def test_overlay_requires_label(tmp_path, sample_ppm, capsys):
    code = run(["overlay", "--in", sample_ppm, "--train-fresh",
                "--out", tmp_path / "o"])
    assert code == 2
    assert "--label" in capsys.readouterr().err


# ---------------------------------------------------------------- verify


def test_verify_subset_passes(tmp_path, capsys):
    code = run(["verify", "--checks", "linear_exactness,polarity_bounds",
                "--out", tmp_path / "v"])
    assert code == 0
    out = capsys.readouterr().out
    assert "2/2 checks passed" in out
    assert "linear_exactness" in out


def test_verify_failing_check_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [("always_false", lambda seed: (False, "no"))])
    code = run(["verify", "--out", tmp_path / "v"])
    assert code == 1
    out = capsys.readouterr().out
    assert any(line.startswith("always_false") and "FAIL" in line and line.endswith("no")
               for line in out.splitlines())
    assert "0/1 checks passed" in out


def test_verify_raising_check_exits_1(tmp_path, capsys, monkeypatch):
    def boom(seed):
        raise ZeroDivisionError(f"seed {seed}")

    monkeypatch.setattr(verify, "CHECKS", [("boom", boom)])
    code = run(["verify", "--seed", "3", "--out", tmp_path / "v"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "raised ZeroDivisionError: seed 3" in out


def test_verify_unknown_check_fails(tmp_path, capsys):
    code = run(["verify", "--checks", "ghost_check", "--out", tmp_path / "v"])
    assert code == 1
    assert "unknown checks" in capsys.readouterr().err


# ---------------------------------------------------------------- config precedence


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "epochs": 1, "classes": 2,
                               "per_class": 1, "side": 8, "hidden": "8",
                               "embed_dim": 8, "batch": 2, "synthetic": True}))
    out = tmp_path / "run"
    assert run(["train", "--config", cfg, "--seed", "9", "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9  # flag wins
    assert manifest["side"] == 8  # config fills the rest


def test_env_output_dir_between_flag_and_config(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "from_config"),
                               "epochs": 1, "classes": 2, "per_class": 1,
                               "side": 8, "hidden": "8", "embed_dim": 8,
                               "batch": 2, "synthetic": True}))
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("IGPROBE_OUTPUT_DIR", str(env_dir))
    assert run(["train", "--config", cfg]) == 0
    assert (env_dir / "checkpoint.json").exists()  # env beats config
    assert not (tmp_path / "from_config").exists()

    flag_dir = tmp_path / "from_flag"
    assert run(["train", "--config", cfg, "--out", flag_dir]) == 0
    assert (flag_dir / "checkpoint.json").exists()  # flag beats env


def test_unknown_config_key_rejected(tmp_path, capsys):
    # "jobs" set the removed worker-thread count; an old config must fail loudly
    cfg = tmp_path / "cfg.json"
    for key in ("sedd", "jobs"):
        cfg.write_text(json.dumps({key: 1}))
        assert run(["train", "--config", cfg, "--synthetic",
                    "--out", tmp_path / "o"]) == 2
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err


def test_malformed_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "abc"}))
    assert run(["train", "--config", cfg, "--synthetic",
                "--out", tmp_path / "o"]) == 2
    assert "bad value for seed" in capsys.readouterr().err


def test_manifest_has_no_timestamps(tmp_path):
    out = tmp_path / "run"
    argv = ["train", *TINY, "--seed", "4", "--out", out]
    assert run(argv) == 0
    first = (out / "manifest.json").read_bytes()
    assert run(argv) == 0
    assert (out / "manifest.json").read_bytes() == first

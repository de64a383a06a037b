"""End-to-end CLI behavior: exit codes, config precedence, artifacts."""

import collections
import csv
import hashlib
import json
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from igprobe import cli, harness, verify
from igprobe.cli import build_parser, main
from igprobe.attribution import split_polarity
from igprobe.codec import degrade_jpeg
from igprobe.data import gen_synthetic
from igprobe.harness import attribute_batch, sweep_precision
from igprobe.imgio import read_image, write_image
from igprobe.model import load_model, new_scorer, save_model
from igprobe.provider import provider_connect
from igprobe.tensor import SeededRng
from igprobe.viz import POLARITY_MODES

TINY = ["--synthetic", "--classes", "2", "--per-class", "1", "--side", "8"]
# train's scorer flags for TINY's data
SCORER = ["--hidden", "8", "--embed-dim", "8", "--epochs", "1", "--batch", "2"]
# The mock gradient provider, scoring TINY's 8x8 two-class images over the wire.
MOCK = ["--provider", f"{shlex.quote(sys.executable)} -m igprobe.mock_provider "
                      "--side 8 --classes 2 --seed 1"]
README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return main([str(a) for a in argv])


def subparsers():
    return next(a for a in build_parser()._actions if a.dest == "subcommand").choices


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    """A checkpoint trained on TINY's data at seed 4, for the commands that score."""
    out = tmp_path_factory.mktemp("train")
    assert run(["train", *TINY, *SCORER, "--seed", "4", "--out", out]) == 0
    return out / "checkpoint.json"


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


def test_usage_error_is_exit_2(tmp_path, capsys, ckpt):
    # two dataset sources at once
    code = run(["sweep", "--synthetic", "--data", str(tmp_path), "--checkpoint", ckpt,
                "--out", str(tmp_path / "o")])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_missing_model_source_is_exit_2(tmp_path, capsys):
    code = run(["sweep", *TINY, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.rstrip().endswith(
        "exactly one model source required: --checkpoint PATH, --provider CMD")


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
    ["sweep", *TINY, "--checkpoint", "c.json", "--qualities", "original,0"],
])
def test_out_of_range_quality_is_usage_error(tmp_path, sample_ppm, capsys, argv):
    # rejected while the config is read, before any image is degraded or model loaded
    if argv[0] == "degrade":
        argv = [*argv, "--in", sample_ppm]
    code = run([*argv, "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error: bad value for" in err and "must be in [1, 100]" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("header", [b"P6\n4", b"P6\n4 abc\n255\n"])
def test_a_bad_ppm_header_names_the_file(tmp_path, capsys, header):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(header)
    code = run(["degrade", "--quality", "50", "--in", bad, "--out", tmp_path / "out.ppm"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_missing_input_file_is_exit_1(tmp_path, capsys):
    code = run(["degrade", "--quality", "50", "--in", tmp_path / "ghost.ppm",
                "--out", tmp_path / "out.ppm"])
    assert code == 1


@pytest.mark.parametrize("argv, removed", [
    (["degrade", "--quality", "50", "--in", "a.ppm", "--out", "b.ppm"], ["--config", "c.json"]),
    (["sweep", *TINY, "--checkpoint", "c.json"], ["--steps", "-5"]),
    (["sweep", *TINY, "--checkpoint", "c.json"], ["--scheme", "trapezoid"]),
    (["overlay", "--in", "a.ppm", "--label", "0"], ["--train-fresh"]),
    (["overlay", "--in", "a.ppm", "--label", "0", "--checkpoint", "c.json"], ["--seed", "1"]),
    (["verify"], ["--out", "v"]),
    (["report", "--from", "p.csv"], ["--seed", "1"]),
    (["sweep", *TINY], ["--train-fresh"]),
    (["attribute", *TINY], ["--train-fresh"]),
    (["sweep", *TINY, "--checkpoint", "c.json"], ["--hidden", "8"]),
    (["attribute", *TINY, "--checkpoint", "c.json"], ["--epochs", "1"]),
], ids=["degrade-config", "sweep-steps", "sweep-scheme", "overlay-train-fresh",
        "overlay-seed", "verify-out", "report-seed", "sweep-train-fresh",
        "attribute-train-fresh", "sweep-hidden", "attribute-epochs"])
def test_flag_the_subcommand_never_reads_is_rejected(capsys, argv, removed):
    with pytest.raises(SystemExit) as exc:
        run([*argv, *removed])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err


def test_abbreviated_flag_is_rejected(capsys, tmp_path, ckpt):
    base = ["sweep", *TINY, "--out", tmp_path / "o"]
    for flags, rejected in ((["--check", ckpt, "--qualities", "original,50"], f"--check {ckpt}"),
                            (["--checkpoint", ckpt, "--qual", "original,50"],
                             "--qual original,50")):
        with pytest.raises(SystemExit) as exc:
            run([*base, *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {rejected}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert run([*base, "--checkpoint", ckpt, "--qualities", "original,50"]) == 0


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
    assert run(["train", *TINY, *SCORER, "--seed", "4", "--out", out]) == 0
    model = load_model(out / "checkpoint.json")
    assert model.input_shape == (8, 8, 3)
    assert model.num_classes == 2
    manifest = json.loads((out / "train.manifest.json").read_text())
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


@pytest.mark.parametrize("flags, message", [
    (["--batch", "0"], "bad value for batch: '0' (batch must be >= 1, got 0)"),
    (["--batch", "-1"], "bad value for batch: '-1' (batch must be >= 1, got -1)"),
    (["--epochs", "-3"], "bad value for epochs: '-3' (epochs must be >= 0, got -3)"),
    (["--lr", "-5"], "bad value for lr: '-5' (lr must be finite and >= 0, got -5.0)"),
    (["--lr", "nan"], "bad value for lr: 'nan' (lr must be finite and >= 0, got nan)"),
    (["--lr", "inf"], "bad value for lr: 'inf' (lr must be finite and >= 0, got inf)"),
    (["--hidden", "0"], "bad value for hidden: '0' (hidden must be >= 1, got 0)"),
    (["--hidden", "8,0"], "bad value for hidden: '8,0' (hidden must be >= 1, got 0)"),
    (["--embed-dim", "0"], "bad value for embed_dim: '0' (embed_dim must be >= 1, got 0)"),
    (["--temperature", "0"],
     "bad value for temperature: '0' (temperature must be positive and finite, got 0.0)"),
    (["--temperature", "nan"],
     "bad value for temperature: 'nan' (temperature must be positive and finite, got nan)"),
    (["--side", "4"], "bad value for side: '4' (side must be >= 8, got 4)"),
    (["--per-class", "0"], "bad value for per_class: '0' (per_class must be >= 1, got 0)"),
    (["--classes", "1"], "bad value for classes: '1' (classes must be >= 2, got 1)"),
])
def test_train_refuses_settings_it_cannot_honour(tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    assert run(["train", "--synthetic", "--classes", "2", "--per-class", "4", "--side", "8",
                *flags, "--out", out]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_a_range_checked_dataset_flag_is_refused_beside_data(tmp_path, capsys):
    # the dataset flags are shared by train, sweep and attribute, and checked as parsed
    assert run(["sweep", "--data", tmp_path, "--classes", "1", "--checkpoint", tmp_path / "c",
                "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == ("usage error: bad value for classes: '1' "
                                       "(classes must be >= 2, got 1)\n")
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("kind", ["checkpoint", "config", "manifest"])
def test_a_json_input_that_cannot_be_read_names_its_file(tmp_path, capsys, ckpt, kind):
    bad = tmp_path / {"checkpoint": "c.json", "config": "cfg.json",
                      "manifest": "sweep.manifest.json"}[kind]
    bad.write_bytes(b"not json" if kind == "checkpoint" else b"\xff\xfe")
    source = tmp_path / "precision.csv"
    source.write_text("model,quality,score\nm,original,1.0\nm,50,0.5\n")
    out = tmp_path / "o"
    argv, code, prefix = {
        "checkpoint": (["sweep", *TINY, "--checkpoint", bad], 1,
                       f"error: cannot read checkpoint {bad}"),
        "config": (["sweep", *TINY, "--checkpoint", ckpt, "--config", bad], 2,
                   f"usage error: cannot read config {bad}"),
        "manifest": (["report", "--from", source], 1, f"error: cannot read {bad}"),
    }[kind]
    assert run([*argv, "--out", out]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix + ": "), err
    assert ("Expecting value" if kind == "checkpoint" else "can't decode byte 0xff") in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["precision", "labels"])
def test_a_csv_input_that_cannot_be_read_names_its_file(tmp_path, capsys, ckpt, kind):
    if kind == "precision":
        bad = tmp_path / "p.csv"
        bad.write_bytes(b"\xff\xfe")
        argv = ["report", "--from", bad]
    else:
        (tmp_path / "d").mkdir()
        bad = tmp_path / "d" / "labels.csv"
        bad.write_bytes(b"filename,class_name\na.ppm,c\xffat\n")
        argv = ["sweep", "--data", bad.parent, "--checkpoint", ckpt]
    out = tmp_path / "o"
    assert run([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: "), err
    assert "can't decode byte 0xff" in err
    assert not out.exists()


def _child_env(**env: str) -> dict:
    """The environment of a subprocess that imports this checkout's igprobe, plus ``env``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            **env}


def _c_locale_env(utf8: str) -> dict:
    """The environment of a subprocess under the ASCII C locale, Python's UTF-8 mode "0" or "1"."""
    return _child_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8=utf8)


def test_csv_inputs_and_outputs_are_utf8_whatever_the_locale(tmp_path):
    # classes with non-ASCII names, read and written under an ASCII locale
    source = gen_synthetic(2, classes=2, per_class=1, side=8)
    data = tmp_path / "d"
    data.mkdir()
    for it in source.items:
        write_image(data / f"{it.id}.ppm", it.image)
    names = ["café", "thé"]
    (data / "labels.csv").write_bytes("filename,class_name\n".encode() + "".join(
        f"{it.id}.ppm,{names[it.label]}\n" for it in source.items).encode("utf-8"))
    assert run(["train", "--data", data, *SCORER, "--out", tmp_path / "t"]) == 0
    ckpt = tmp_path / "t" / "checkpoint.json"
    written = {}
    for locale, utf8 in (("ascii", "0"), ("utf8", "1")):
        out = tmp_path / locale
        proc = subprocess.run([sys.executable, "-m", "igprobe", "attribute", "--data", data,
                               "--checkpoint", ckpt, "--qualities", "original,50",
                               "--steps", "2", "--out", out],
                              env=_c_locale_env(utf8), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        written[locale] = (out / "attributions.csv").read_bytes()
    assert written["ascii"] == written["utf8"]
    assert "café".encode("utf-8") in written["ascii"]


def test_report_prints_a_name_its_locale_cannot_encode(tmp_path):
    # stdout under an ASCII locale cannot encode "é"; the run still succeeds
    source = tmp_path / "u.csv"
    source.write_bytes("model,quality,score\ncafé,original,0.9\ncafé,25,0.5\n".encode("utf-8"))
    runs = {}
    for locale, utf8 in (("ascii", "0"), ("utf8", "1")):
        out = tmp_path / locale
        proc = subprocess.run([sys.executable, "-m", "igprobe", "report", "--from", source,
                               "--out", out], env=_c_locale_env(utf8), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.manifest.json").is_file()
        runs[locale] = (proc.stdout, (out / "table.csv").read_bytes())
    assert runs["ascii"][1] == runs["utf8"][1]
    assert "caf\\xe9,0.9000,0.5000" in runs["ascii"][0]
    assert "café,0.9000,0.5000" in runs["utf8"][0]


def test_sweep_names_a_non_ascii_checkpoint_whatever_the_locale(tmp_path, ckpt):
    # the row name is the checkpoint's stem, and the manifest records its path,
    # both of which an ASCII locale decodes from argv with surrogate escapes
    named = tmp_path / "café.json"
    shutil.copy(ckpt, named)
    out = tmp_path / "o"
    written = {}
    for locale, utf8 in (("ascii", "0"), ("utf8", "1")):
        proc = subprocess.run([sys.executable, "-m", "igprobe", "sweep", *TINY, "--seed", "4",
                               "--checkpoint", named, "--qualities", "original,25",
                               "--out", out], env=_c_locale_env(utf8), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        written[locale] = [(out / f).read_bytes() for f in (
            "precision.csv", "table.csv", "table.md", "chart.svg", "sweep.manifest.json")]
    assert written["ascii"] == written["utf8"]
    assert "| café |".encode("utf-8") in written["ascii"][2]
    assert json.loads(written["ascii"][4])["checkpoint"] == str(named)


def test_checkpoint_stem_that_is_not_utf8_is_refused(tmp_path, ckpt):
    named = tmp_path / os.fsdecode(b"\xff.json")
    shutil.copy(ckpt, named)
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "igprobe", "sweep", *TINY, "--checkpoint", named,
                           "--out", out], env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: checkpoint {tmp_path}/\\udcff.json: file name is not "
                                  "UTF-8 text"), proc.stderr
    assert not out.exists()


def test_an_error_naming_a_non_utf8_file_reaches_a_strict_stderr(tmp_path, capsys, ckpt):
    # capsys's stderr is strict UTF-8; the surrogate in the message is printed escaped
    named = tmp_path / os.fsdecode(b"\xff.json")
    shutil.copy(ckpt, named)
    assert run(["sweep", *TINY, "--checkpoint", named, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {tmp_path}/\\udcff.json: file name is not UTF-8 "
                          "text"), err


@pytest.mark.parametrize("field, digits, message", [
    ("bias", 401, "checkpoint {path} layer 0: bias contains non-finite values"),
    ("bias", 5001, "checkpoint {path} layer 0: bias contains non-finite values"),
    ("class_embeddings", 5001, "checkpoint {path}: class embeddings contains non-finite values"),
    ("temperature", 401,
     "checkpoint {path} field 'temperature' is an integer too large for a float64"),
    ("temperature", 5001, None),
    ("input_shape", 5001, None),
], ids=["bias-401", "bias-5001", "class_embeddings-5001", "temperature-401", "temperature-5001",
        "input_shape-5001"])
def test_an_integer_too_large_for_a_float_is_refused_naming_its_field(tmp_path, capsys, ckpt,
                                                                      field, digits, message):
    # An integer in a "data" list reads as a float, so one too large for a
    # float64 is infinite.  Elsewhere json reads it as an int, and refuses one
    # past Python's 4,300-digit limit: message None expects json's own words.
    doc = json.loads(ckpt.read_text())
    if field == "bias":
        doc["layers"][0]["bias"]["data"][1] = "HUGE"
    elif field == "class_embeddings":
        doc["class_embeddings"]["data"][0] = "HUGE"
    elif field == "input_shape":
        doc["input_shape"][0] = "HUGE"
    else:
        doc["temperature"] = "-HUGE"
    text = re.sub('"(-?)HUGE"', r"\g<1>1" + "0" * (digits - 1), json.dumps(doc))
    path = tmp_path / "huge.json"
    path.write_text(text)
    if message is None:
        with pytest.raises(ValueError) as refusal:
            json.loads(text)
        message = "cannot read checkpoint {path}: " + str(refusal.value)
    out = tmp_path / "o"
    assert run(["sweep", *TINY, "--checkpoint", path, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not out.exists()


def test_manifest_writes_non_utf8_argv_bytes_escaped(tmp_path, ckpt):
    out = tmp_path / os.fsdecode(b"\xff")
    assert run(["sweep", *TINY, "--checkpoint", ckpt, "--qualities", "original,25",
                "--out", out]) == 0
    manifest = json.loads((out / "sweep.manifest.json").read_bytes().decode("utf-8"))
    assert manifest["out"] == f"{tmp_path}/\\xff"
    json.dumps(manifest, ensure_ascii=False).encode("utf-8")  # strict: no lone surrogate


# ---------------------------------------------------------------- sweep & report


def test_sweep_artifacts(tmp_path, capsys, ckpt):
    out = tmp_path / "sweep"
    assert run(["sweep", *TINY, "--checkpoint", ckpt, "--seed", "4",
                "--qualities", "original,50", "--out", out]) == 0
    for name in ("precision.csv", "table.csv", "table.md", "chart.svg",
                 "sweep.manifest.json"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert stdout.startswith("model,Original,Quality 50\n")
    assert (out / "precision.csv").read_text().startswith("model,quality,score\n")


def test_sweep_from_checkpoint_row_named_after_file(tmp_path, ckpt):
    out = tmp_path / "s"
    assert run(["sweep", *TINY, "--checkpoint", ckpt,
                "--qualities", "original,50", "--out", out]) == 0
    assert "checkpoint,original," in (out / "precision.csv").read_text()


def test_sweep_byte_identical_across_runs(tmp_path, ckpt):
    out = tmp_path / "rep"
    argv = ["sweep", *TINY, "--checkpoint", ckpt, "--seed", "4",
            "--qualities", "original,50", "--out", out]
    assert run(argv) == 0
    first = {n: (out / n).read_bytes()
             for n in ("precision.csv", "table.csv", "table.md",
                       "chart.svg", "sweep.manifest.json")}
    assert run(argv) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_report_rerenders_from_csv(tmp_path, ckpt):
    sweep_out = tmp_path / "sweep"
    assert run(["sweep", *TINY, "--checkpoint", ckpt, "--seed", "4",
                "--qualities", "original,50",
                "--out", sweep_out]) == 0
    report_out = tmp_path / "report"
    assert run(["report", "--from", sweep_out, "--out", report_out]) == 0
    assert (report_out / "chart.svg").read_bytes() == (sweep_out / "chart.svg").read_bytes()
    assert (report_out / "table.csv").read_bytes() == (sweep_out / "table.csv").read_bytes()


def test_table_artifacts_are_pinned(tmp_path, ckpt):
    # sha256 of the tables and chart that sweep writes and that report
    # re-renders from its precision.csv; any change to them is a regression
    sweep_out, report_out = tmp_path / "sweep", tmp_path / "report"
    assert run(["sweep", *TINY, "--checkpoint", ckpt, "--seed", "4",
                "--qualities", "original,50,25", "--out", sweep_out]) == 0
    assert run(["report", "--from", sweep_out, "--out", report_out]) == 0
    tables = {"table.csv": "53cfb3211f9151fa55c32e0c1399946601621927cb517b6bc51e7a9965cb9b61",
              "table.md": "547a04f59f21defe5d500f4017d9adbea263109b8bafabaa26eed8fb0fe21240",
              "chart.svg": "86b17cb2a345f573a17674c4648931285f0672c0501d1f0083a1334c3c67653b"}
    want = {"precision.csv": "84f4de939ce68e5e9997ab28794afa11a72149c2b6ee0956974ce94daa097955",
            **tables}
    for out, names in ((sweep_out, want), (report_out, tables)):
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
        assert digests == names, out.name


def test_model_name_is_escaped_in_table_and_chart(tmp_path, ckpt):
    named = tmp_path / "a&b,v2|<x>.json"
    named.write_bytes(ckpt.read_bytes())
    out = tmp_path / "s"
    assert run(["sweep", *TINY, "--checkpoint", named, "--qualities", "original,50",
                "--out", out]) == 0
    with open(out / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [3, 3] and rows[1][0] == "a&b,v2|<x>"
    md_row = (out / "table.md").read_text().splitlines()[2]
    assert md_row.startswith("| a&b,v2\\|<x> | ")
    assert len(re.split(r"(?<!\\)\|", md_row)) == 5  # 3 cells between 4 unescaped pipes
    svg = ElementTree.parse(out / "chart.svg").getroot()
    assert "a&b,v2|<x>" in [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]


def test_report_labels_chart_with_the_sweeps_metric(tmp_path, ckpt):
    sweep_out = tmp_path / "sweep"
    assert run(["sweep", *TINY, "--checkpoint", ckpt, "--metric", "accuracy",
                "--qualities", "original,50", "--out", sweep_out]) == 0
    report_out = tmp_path / "report"
    assert run(["report", "--from", sweep_out / "precision.csv", "--out", report_out]) == 0
    assert (report_out / "chart.svg").read_bytes() == (sweep_out / "chart.svg").read_bytes()
    manifest = report_out / "report.manifest.json"
    assert json.loads(manifest.read_text())["metric"] == "accuracy"
    # an explicit --metric wins over the sweep's
    assert run(["report", "--from", sweep_out, "--metric", "macro_precision",
                "--out", report_out]) == 0
    assert ">macro precision</text>" in (report_out / "chart.svg").read_text()
    assert json.loads(manifest.read_text())["metric"] == "macro_precision"


@pytest.mark.parametrize("manifest, message", [
    ("{", "cannot read"),
    ('{"subcommand": "sweep", "metric": "bogus"}', "metric 'bogus' is not one of"),
], ids=["not-json", "unknown-metric"])
def test_report_refuses_a_bad_sweep_manifest(tmp_path, capsys, manifest, message):
    source = tmp_path / "precision.csv"
    source.write_text("model,quality,score\nm,original,1.0\nm,50,0.5\n")
    (tmp_path / "sweep.manifest.json").write_text(manifest)
    out = tmp_path / "report"
    assert run(["report", "--from", source, "--out", out]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_report_rejects_repeated_cell(tmp_path, capsys):
    source = tmp_path / "precision.csv"
    source.write_text("model,quality,score\nm,original,1.0\nm,25,0.5\nm,original,0.5\n")
    out = tmp_path / "report"
    assert run(["report", "--from", source, "--out", out]) == 1
    assert "line 4: model 'm' at quality original is listed twice" in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_short_row(tmp_path, capsys):
    source = tmp_path / "precision.csv"
    source.write_text("model,quality,score\nm,original,1.0\nm,50\n")
    out = tmp_path / "report"
    assert run(["report", "--from", source, "--out", out]) == 1
    assert "line 3: expected 3 cells, got ['m', '50']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("m,25,abc", "could not convert string to float: 'abc'"),
    ("m,q25,0.4", "invalid literal for int()"),
    ("m,250,0.4", "quality must be in [1, 100]"),
], ids=["score", "quality-text", "quality-range"])
def test_report_names_the_line_of_an_unparseable_cell(tmp_path, capsys, row, message):
    source = tmp_path / "precision.csv"
    source.write_text(f"model,quality,score\nm,original,1.0\n{row}\n")
    out = tmp_path / "report"
    assert run(["report", "--from", source, "--out", out]) == 1
    quality, score = row.split(",")[1:]
    err = capsys.readouterr().err
    assert f"error: {source} line 3: quality '{quality}', score '{score}': " in err
    assert message in err
    assert not out.exists()


def test_report_that_cannot_chart_writes_nothing(tmp_path, capsys):
    source = tmp_path / "precision.csv"
    source.write_text("model,quality,score\nm,original,1.0\n")
    out = tmp_path / "report"
    assert run(["report", "--from", source, "--out", out]) == 1
    assert "need >=2 points on the quality axis" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body", [
    "",
    "m,original,1.0\nm,50,0.5\nn,original,1.0\n",
], ids=["header-only", "uneven-coverage"])
def test_report_table_errors_name_the_file(tmp_path, capsys, body):
    source = tmp_path / "precision.csv"
    source.write_text("model,quality,score\n" + body)
    out = tmp_path / "report"
    assert run(["report", "--from", source, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {source}: ")
    assert not out.exists()


def test_report_needs_source(tmp_path, capsys):
    assert run(["report", "--out", tmp_path / "r"]) == 2
    assert "--from" in capsys.readouterr().err


# ---------------------------------------------------------------- attribute & overlay


def test_attribute_draws_overlays_at_the_chosen_quality(tmp_path, ckpt):
    out = tmp_path / "att"
    qualities = ["original", 75, 50, 25]
    assert run(["attribute", *TINY, "--checkpoint", ckpt, "--seed", "4",
                "--qualities", ",".join(map(str, qualities)), "--overlay-quality", "50",
                "--steps", "2", "--out", out]) == 0
    source = gen_synthetic(4, classes=2, per_class=1, side=8)
    maps = attribute_batch(load_model(ckpt), source, qualities, steps=2)
    meta = json.loads((out / "overlays.json").read_text())
    assert [entry["id"] for entry in meta] == [it.id for it in source.items]
    assert {p.name for p in out.glob("*.ppm")} == {
        f"{it.id}_q50_{mode}.ppm" for it in source.items for mode in POLARITY_MODES}
    for entry, by_q in zip(meta, maps):
        assert entry["quality"] == 50
        assert entry["ig_scale"] == split_polarity(by_q[50].values).scale


def test_attribute_writes_csv_and_overlays(tmp_path, ckpt):
    out = tmp_path / "att"
    assert run(["attribute", *TINY, "--checkpoint", ckpt, "--seed", "4",
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


def test_attribute_artifacts_are_pinned(tmp_path, ckpt):
    # sha256 of the files a fixed recipe writes; a new column or overlay
    # field changes these on purpose, anything else is a regression
    out = tmp_path / "att"
    assert run(["attribute", "--synthetic", "--classes", "2", "--per-class", "3",
                "--side", "8", "--seed", "4", "--checkpoint", ckpt,
                "--steps", "8", "--scheme", "trapezoid", "--out", out]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("attributions.csv", "overlays.json")}
    assert digests == {
        "attributions.csv": "50c2899d3c6b0208f82c5338c615dc67eefdad47400ced5e06725e89eb418bdf",
        "overlays.json": "b4a673100233d245f8b2386e0d6a4045542c3c646a70fb4602ee2f471112fd2f",
    }


def test_checkpoint_manifests_and_overlay_are_pinned(tmp_path, monkeypatch, sample_ppm):
    # sha256 of the checkpoint, of every subcommand's manifest and of the
    # single-image overlay set; relative paths keep tmp_path out of the bytes
    monkeypatch.chdir(tmp_path)
    ckpt = "train/checkpoint.json"
    argvs = {
        "train": [*TINY, *SCORER, "--seed", "4"],
        "sweep": [*TINY, "--checkpoint", ckpt, "--qualities", "original,50"],
        "attribute": [*TINY, "--checkpoint", ckpt, "--qualities", "original,50", "--steps", "4"],
        "overlay": ["--in", sample_ppm.name, "--label", "1", "--checkpoint", ckpt,
                    "--steps", "4"],
        "report": ["--from", "sweep"],
    }
    digests = {}
    for name, argv in argvs.items():
        assert run([name, *argv, "--out", name]) == 0
        digests[f"{name}.manifest.json"] = Path(name) / f"{name}.manifest.json"
    digests["checkpoint.json"] = Path(ckpt)
    digests.update({f.name: f for f in Path("overlay").glob("overlay*")})
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in digests.items()}
    assert digests == {
        "checkpoint.json": "c70a817dd58bea0d2f0b7c6379242bf220ffcd786dbf77a94af0702ca5890e78",
        "train.manifest.json": "4bbcddc44eb8f69d8e1140acbbb2d56d48da490987cbfcf98dceaaafd0a02593",
        "sweep.manifest.json": "62258d4bd68b776f799f49caa609174017acff8ef5988f01d706ec2e5360d694",
        "attribute.manifest.json": "1bb3994f82dc73ec7a7ac8008800daa5738cc1ae4f4348fe770e37b124ca183f",
        "overlay.manifest.json": "8679c380fddb16a3880e44b05e8a42a529653b887d5488ae077697bd2970e64c",
        "report.manifest.json": "43069ccf60a91274e6946c7bbc957497d292dbeb4b85f5a1ad0b0f4b58224850",
        "overlay.json": "12180776e1bcd498fe992a4613abf3e57ec1eb636bdb41c5154af4733f09347f",
        "overlay_negative.ppm": "a174f2e2877e71f64f8b3f726147b7dcb3a669414ccf76358bc23b18f4de8ffb",
        "overlay_positive.ppm": "4de88032886f95b854991c74f7d13e83198f54bc3fe83251e5ca826786542cbd",
        "overlay_both.ppm": "fd5377ce59de3d6542b8349ebe65d1c35888ad720b13cb5d527f8ae2f2ec5439",
    }


def test_attribute_rejects_overlay_quality_outside_sweep(tmp_path, capsys, ckpt):
    code = run(["attribute", *TINY, "--checkpoint", ckpt,
                "--qualities", "original,50", "--overlay-quality", "25",
                "--steps", "2", "--out", tmp_path / "o"])
    assert code == 2
    assert "--overlay-quality 25" in capsys.readouterr().err


def test_attribute_refuses_ids_that_share_an_overlay_file(tmp_path, capsys, ckpt):
    # "a b.ppm" and "a_b.ppm" both become the file-name stem "a_b.ppm"
    data = tmp_path / "data"
    data.mkdir()
    for name, item in zip(["a b.ppm", "a_b.ppm"], gen_synthetic(3, 2, 1, 8).items):
        write_image(data / name, item.image)
    names = load_model(ckpt).class_names
    (data / "labels.csv").write_text(f"filename,class_name\na b.ppm,{names[0]}\n"
                                     f"a_b.ppm,{names[1]}\n")
    argv = ["attribute", "--data", data, "--checkpoint", ckpt, "--steps", "2"]
    out = tmp_path / "o"
    assert run([*argv, "--qualities", "original,50", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'a b.ppm'" in err and "'a_b.ppm'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "attribute"])
def test_checkpoint_refuses_a_dataset_in_another_class_order(tmp_path, capsys, ckpt, command):
    # labels.csv lists the checkpoint's classes in another first-appearance
    # order, so its label indices name other classes than the checkpoint's
    names = load_model(ckpt).class_names
    data = tmp_path / "data"
    data.mkdir()
    rows = ["filename,class_name"]
    for item in reversed(gen_synthetic(3, 2, 1, 8).items):
        write_image(data / f"{item.id}.ppm", item.image)
        rows.append(f"{item.id}.ppm,{names[item.label]}")
    (data / "labels.csv").write_text("\n".join(rows) + "\n")
    argv = [command, "--data", data, "--qualities", "original,50"]
    out = tmp_path / "o"
    assert run([*argv, "--checkpoint", ckpt, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(names) in err and str(names[::-1]) in err
    assert not out.exists()
    # a provider's class names are its own labels, so they are not compared
    assert run([*argv, *MOCK, "--out", out]) == 0


def write_data(directory, source):
    """``source``'s images as PPM files under ``directory``, with labels.csv."""
    directory.mkdir()
    for it in source.items:
        write_image(directory / f"{it.id}.ppm", it.image)
    (directory / "labels.csv").write_text("filename,class_name\n" + "".join(
        f"{it.id}.ppm,{source.class_names[it.label]}\n" for it in source.items))
    return directory


@pytest.mark.parametrize("argv", [
    ["sweep", "--checkpoint", "CKPT", "--qualities", "original,75,25"],
    ["attribute", "--checkpoint", "CKPT", "--qualities", "original,75,25", "--steps", "2"],
    ["train", *SCORER],
], ids=["sweep", "attribute", "train"])
def test_each_image_file_is_read_twice(tmp_path, monkeypatch, ckpt, argv):
    # once when the dataset is checked, once when the loop reaches the image;
    # attribute's overlays are drawn over each map's baseline, not a third read,
    # and train's mean loss is taken over the pixels its epochs read
    argv = [ckpt if a == "CKPT" else a for a in argv]
    source = gen_synthetic(5, classes=2, per_class=3, side=8)
    data = write_data(tmp_path / "data", source)
    reads = collections.Counter()
    read_bytes = Path.read_bytes

    def counting(path):
        reads[path.name] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting)
    # one process, so that the counter sees every read: a forked child counts its own
    monkeypatch.setattr(harness, "_workers", lambda scorer, n_items: 1)
    assert run([*argv, "--data", data, "--out", tmp_path / "o"]) == 0
    assert {name: n for name, n in reads.items() if name.endswith(".ppm")} == {
        f"{it.id}.ppm": 2 for it in source.items}


def test_a_file_changed_after_the_loop_leaves_the_attribute_outputs_as_they_were(
        tmp_path, monkeypatch, ckpt):
    # Every output is made from what the loop read: a file rewritten once
    # attribute_batch has returned is not read again.
    source = gen_synthetic(5, classes=2, per_class=2, side=8)
    argv = ["attribute", "--checkpoint", ckpt, "--qualities", "original,50", "--steps", "2"]
    assert run([*argv, "--data", write_data(tmp_path / "kept", source),
                "--out", tmp_path / "kept_out"]) == 0
    data = write_data(tmp_path / "changed", source)
    attribute = cli.attribute_batch

    def then_change(*args, **kwargs):
        maps = attribute(*args, **kwargs)
        for it in source.items:
            write_image(data / f"{it.id}.ppm", np.zeros((8, 8, 3)))
        return maps

    monkeypatch.setattr(cli, "attribute_batch", then_change)
    assert run([*argv, "--data", data, "--out", tmp_path / "changed_out"]) == 0
    kept = sorted(p.name for p in (tmp_path / "kept_out").iterdir()
                  if not p.name.endswith(".manifest.json"))
    assert "attributions.csv" in kept and "overlays.json" in kept
    overlays = [n for n in kept if n.endswith(".ppm")]
    assert len(overlays) == len(POLARITY_MODES) * len(source.items)
    for name in kept:
        assert ((tmp_path / "changed_out" / name).read_bytes()
                == (tmp_path / "kept_out" / name).read_bytes()), name


def test_attribute_counts_the_overlays_it_wrote(tmp_path, monkeypatch, capsys, ckpt):
    # the polarity modes alone decide how many overlays an image gets
    monkeypatch.setattr(cli, "POLARITY_MODES", ("negative", "both"))
    out = tmp_path / "o"
    assert run(["attribute", *TINY, "--checkpoint", ckpt, "--qualities", "original,50",
                "--steps", "2", "--out", out]) == 0
    written = sorted(p.name for p in out.glob("*.ppm"))
    assert len(written) == 4 and not [n for n in written if n.endswith("_positive.ppm")]
    assert f"wrote attributions.csv and 4 overlays to {out}" in capsys.readouterr().out


def test_an_overlay_write_error_names_the_image_and_the_quality(tmp_path, monkeypatch, capsys,
                                                                ckpt):
    source = gen_synthetic(5, classes=2, per_class=2, side=8)
    data = write_data(tmp_path / "data", source)
    bad = f"{source.items[2].id}.ppm"
    write = cli.write_image

    def failing(path, img):
        if Path(path).name.startswith(bad):
            raise OSError(28, "No space left on device")
        write(path, img)

    monkeypatch.setattr(cli, "write_image", failing)
    assert run(["attribute", "--data", data, "--checkpoint", ckpt, "--qualities", "original,50",
                "--steps", "2", "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: overlay failed on image {bad!r} at quality 50: "
                          "[Errno 28] No space left on device"), err


# Starts argv[1:] and prints its exit status and peak RSS (KB) as os.wait4 reports them.
PEAK_RSS = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_sweep_memory_is_flat_in_the_corpus_size(tmp_path):
    # On Linux a process's peak RSS counts that of the process it was spawned
    # from, so a small launcher, not this test process, starts each sweep.
    ckpt = tmp_path / "checkpoint.json"
    save_model(new_scorer(1, (16, 16, 3), (16,), 8, 2), ckpt)
    peaks = {}
    for count in (40, 400):
        data = tmp_path / f"d{count}"
        data.mkdir()
        for i in range(count):
            write_image(data / f"{i:03d}.ppm", SeededRng(i).uniform([96, 96, 3]))
        (data / "labels.csv").write_text("filename,class_name\n" + "".join(
            f"{i:03d}.ppm,c{i % 2}\n" for i in range(count)))
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "igprobe", "sweep",
             "--data", data, "--checkpoint", ckpt, "--qualities", "original,25",
             "--out", tmp_path / f"o{count}"], env=_child_env(), capture_output=True, text=True)
        code, peaks[count] = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
    # 360 more 96x96 images would hold 9.95 MB more as 8-bit pixels
    assert abs(peaks[400] - peaks[40]) < 2 * 1024, peaks


def test_sweep_and_attribute_sharing_a_directory_keep_their_manifests(tmp_path, ckpt):
    run_dir = tmp_path / "run"
    assert run(["sweep", *TINY, "--checkpoint", ckpt, "--metric", "accuracy",
                "--qualities", "original,50", "--out", run_dir]) == 0
    assert run(["attribute", *TINY, "--checkpoint", ckpt, "--qualities", "original,50",
                "--steps", "2", "--out", run_dir]) == 0
    report_out = tmp_path / "report"
    assert run(["report", "--from", run_dir, "--out", report_out]) == 0
    assert ">accuracy</text>" in (report_out / "chart.svg").read_text()
    assert json.loads((run_dir / "sweep.manifest.json").read_text())["metric"] == "accuracy"
    assert json.loads((run_dir / "attribute.manifest.json").read_text())["steps"] == 2


@pytest.mark.parametrize("argv, message", [
    (["attribute", "--qualities", "original,25", "--overlay-quality", "50"],
     "--overlay-quality 50 not in [25]"),
    (["sweep", "--qualities", "25,50"], "quality list must include the original level"),
    (["attribute", "--qualities", "original,25,25"], "quality 25 is listed twice"),
    (["sweep", "--qualities", "original,25,original"], "quality original is listed twice"),
    (["sweep", "--qualities", "original"], "quality list must include a compressed level"),
    (["attribute", "--qualities", "original"], "quality list must include a compressed level"),
])
def test_bad_quality_list_is_usage_error_before_any_work(tmp_path, capsys, ckpt, argv, message):
    out = tmp_path / "o"
    assert run([*argv, *TINY, "--checkpoint", ckpt, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["train"], 2, "need a dataset: --data DIR or --synthetic"),
    (["sweep", "--checkpoint", "CKPT"], 2, "need a dataset: --data DIR or --synthetic"),
    (["sweep", "--checkpoint", "CKPT", "--data", "HEADER_ONLY"], 1, "labels.csv: no items"),
], ids=["train-no-source", "sweep-no-source", "sweep-header-only"])
def test_a_command_with_no_images_is_refused_before_any_work(tmp_path, capsys, ckpt,
                                                             argv, code, message):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "labels.csv").write_text("filename,class_name\n")
    argv = [{"CKPT": ckpt, "HEADER_ONLY": tmp_path / "data"}.get(a, a) for a in argv]
    out = tmp_path / "o"
    assert run([*argv, "--out", out]) == code
    assert capsys.readouterr().err.rstrip().endswith(message)
    assert not out.exists()


def test_overlay_single_image(tmp_path, sample_ppm, ckpt):
    out = tmp_path / "ov"
    assert run(["overlay", "--in", sample_ppm, "--label", "0", "--checkpoint", ckpt,
                "--quality", "25", "--steps", "4", "--out", out]) == 0
    meta = json.loads((out / "overlay.json").read_text())
    assert meta["quality"] == "25"
    assert set(meta["files"]) == {"negative", "positive", "both"}
    for fname in meta["files"].values():
        img = read_image(out / fname)
        assert img.shape == (8, 8, 3)
    assert "ig_sum" in meta and "completeness_gap" in meta


def test_overlay_takes_no_quality_list(tmp_path, sample_ppm, capsys):
    sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
    overlay = sub.choices["overlay"]
    assert "--qualities" not in overlay._option_string_actions
    assert {"--steps", "--scheme"} <= set(overlay._option_string_actions)
    with pytest.raises(SystemExit) as exc:
        run(["overlay", "--in", sample_ppm, "--label", "0", "--checkpoint", tmp_path / "c.json",
             "--quality", "25", "--qualities", "25", "--out", tmp_path / "ov"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --qualities 25" in capsys.readouterr().err


def test_sweep_over_provider(tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", *TINY, *MOCK, "--qualities", "original,50", "--out", out]) == 0
    for name in ("precision.csv", "table.csv", "table.md", "chart.svg", "sweep.manifest.json"):
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
    assert (out / "attribute.manifest.json").exists()


def test_overlay_over_provider(tmp_path, sample_ppm):
    out = tmp_path / "ov"
    assert run(["overlay", "--in", sample_ppm, "--label", "0", *MOCK,
                "--quality", "25", "--steps", "4", "--out", out]) == 0
    meta = json.loads((out / "overlay.json").read_text())
    assert set(meta["files"]) == {"negative", "positive", "both"}
    for fname in meta["files"].values():
        assert read_image(out / fname).shape == (8, 8, 3)
    assert (out / "overlay.manifest.json").exists()


@pytest.mark.parametrize("place", ["sweep_precision", "attribute_batch", "overlay"])
def test_a_failing_scorer_is_named_by_image_and_quality(tmp_path, sample_ppm, capsys, place):
    failing = shlex.split(MOCK[1]) + ["--misbehave", "error"]
    cause = "provider error for request 0: synthetic provider failure"
    if place == "overlay":
        out = tmp_path / "ov"
        assert run(["overlay", "--in", sample_ppm, "--label", "0", "--provider",
                    shlex.join(failing), "--quality", "25", "--steps", "4", "--out", out]) == 1
        message = capsys.readouterr().err
        assert message.startswith(f"error: attribution failed on image {str(sample_ppm)!r} "
                                  "at quality 25: ")
        assert not out.exists()
    else:
        data = gen_synthetic(1, classes=2, per_class=1, side=8)
        with provider_connect(failing) as client, pytest.raises(RuntimeError) as exc:
            if place == "sweep_precision":
                sweep_precision(client, data, ["original", 50])
            else:
                attribute_batch(client, data, ["original", 50], steps=4)
        message = str(exc.value)
        what, q = ("scoring", "original") if place == "sweep_precision" else ("attribution", 50)
        assert message.startswith(f"{what} failed on image {data.items[0].id!r} at quality {q}: ")
    assert cause in message


def test_overlay_names_only_its_model_sources(tmp_path, sample_ppm, capsys):
    assert run(["overlay", "--in", sample_ppm, "--label", "0", "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith("exactly one model source required: "
                                 "--checkpoint PATH, --provider CMD")


def test_overlay_takes_its_input_from_config(tmp_path, sample_ppm, ckpt):
    # the README lists input_path as the config key for --in
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_path": str(sample_ppm), "label": 0, "steps": 4}))
    out = tmp_path / "ov"
    assert run(["overlay", "--config", cfg, "--checkpoint", ckpt, "--out", out]) == 0
    manifest = json.loads((out / "overlay.manifest.json").read_text())
    assert manifest["input_path"] == str(sample_ppm)


def test_overlay_requires_in(tmp_path, capsys, ckpt):
    out = tmp_path / "o"
    assert run(["overlay", "--label", "0", "--checkpoint", ckpt, "--out", out]) == 2
    assert "overlay needs --in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["attribute", "overlay"])
def test_steps_below_one_is_usage_error(tmp_path, sample_ppm, capsys, command):
    # refused as the flags are parsed: no image is read and no scorer loaded
    argv = {"attribute": [*TINY, "--qualities", "original,50"],
            "overlay": ["--in", sample_ppm, "--label", "0"]}[command]
    out = tmp_path / "o"
    assert run([command, *argv, "--checkpoint", tmp_path / "ghost.json", "--steps", "0",
                "--out", out]) == 2
    assert ("usage error: bad value for steps: '0' (steps must be >= 1, got 0)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_overlay_refuses_the_original_quality(tmp_path, sample_ppm, capsys):
    # an original-to-original path has no length, and its overlays would be blank
    out = tmp_path / "o"
    assert run(["overlay", "--in", sample_ppm, "--label", "0", "--quality", "original",
                "--checkpoint", tmp_path / "ghost.json", "--out", out]) == 2
    assert ("usage error: overlay needs a compressed --quality, got original"
            in capsys.readouterr().err)
    assert not out.exists()


def test_overlay_label_is_checked_against_the_scorer(tmp_path, sample_ppm, capsys, ckpt):
    out = tmp_path / "o"
    assert run(["overlay", "--in", sample_ppm, "--label", "7", "--checkpoint", ckpt,
                "--steps", "2", "--out", out]) == 1
    assert capsys.readouterr().err == "error: label 7 out of range for 2 classes\n"
    assert not out.exists()


def test_overlay_requires_label(tmp_path, sample_ppm, capsys):
    code = run(["overlay", "--in", sample_ppm, "--checkpoint", tmp_path / "c.json",
                "--out", tmp_path / "o"])
    assert code == 2
    assert "--label" in capsys.readouterr().err


# ---------------------------------------------------------------- verify


def test_verify_subset_passes(capsys):
    code = run(["verify", "--checks", "linear_exactness,polarity_bounds"])
    assert code == 0
    out = capsys.readouterr().out
    assert "2/2 checks passed" in out
    assert "linear_exactness" in out


@pytest.mark.parametrize("kernel, features", [("Haswell", ("AVX2", "FMA3")),
                                             ("Prescott", ("SSE3",))],
                         ids=["Haswell", "Prescott"])
def test_swap_negation_holds_under_each_openblas_kernel(kernel, features):
    # Under these kernels a GEMM row's bits depend on the row's place in the
    # batch; OPENBLAS_CORETYPE picks the kernel for the child process alone.
    if platform.machine() != "x86_64":
        pytest.skip("OpenBLAS kernels are switched here on x86-64 only")
    try:  # numpy >= 2.0 reports its BLAS build and CPU features this way
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        from numpy._core._multiarray_umath import __cpu_features__
    except (TypeError, KeyError, ImportError):
        pytest.skip("this numpy does not report its BLAS build and CPU features")
    if ("openblas" not in blas.get("name", "").lower()
            or "DYNAMIC_ARCH" not in blas.get("openblas configuration", "")):
        pytest.skip("numpy's BLAS is not an OpenBLAS that picks its kernel at run time")
    if not all(__cpu_features__.get(f) for f in features):
        pytest.skip(f"the {kernel} kernel needs {', '.join(features)}")
    proc = subprocess.run([sys.executable, "-m", "igprobe", "verify", "--checks",
                           "polarity_bounds"], env=_child_env(OPENBLAS_CORETYPE=kernel),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_failing_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [("always_false", lambda seed: (False, "no"))])
    code = run(["verify"])
    assert code == 1
    out = capsys.readouterr().out
    assert any(line.startswith("always_false") and "FAIL" in line and line.endswith("no")
               for line in out.splitlines())
    assert "0/1 checks passed" in out


def test_verify_raising_check_exits_1(capsys, monkeypatch):
    def boom(seed):
        raise ZeroDivisionError(f"seed {seed}")

    monkeypatch.setattr(verify, "CHECKS", [("boom", boom)])
    code = run(["verify", "--seed", "3"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "raised ZeroDivisionError: seed 3" in out


@pytest.mark.parametrize("checks", ["", " , "])
def test_verify_checks_that_name_no_check_is_usage_error(capsys, checks):
    assert run(["verify", "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: bad value for checks: {checks!r} "
                                   "(names no check; available: linear_exactness,")


def test_verify_unknown_check_fails(capsys):
    code = run(["verify", "--checks", "ghost_check"])
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
    manifest = json.loads((out / "train.manifest.json").read_text())
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
    # "jobs" set the removed worker-thread count and "train_fresh" the removed in-process
    # training of sweep and attribute; an old config must fail loudly
    cfg = tmp_path / "cfg.json"
    for key in ("sedd", "jobs", "train_fresh"):
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


def test_one_config_file_drives_each_subcommand(tmp_path):
    # each subcommand takes the keys it has and ignores the others' keys
    cfg = tmp_path / "cfg.json"
    ckpt = tmp_path / "train" / "checkpoint.json"
    cfg.write_text(json.dumps({"steps": 7, "seed": 4, "synthetic": True, "classes": 2,
                               "per_class": 1, "side": 8, "hidden": [8], "embed_dim": 8,
                               "epochs": 1, "batch": 2, "checkpoint": str(ckpt),
                               "qualities": ["original", 50], "metric": "accuracy"}))
    manifests = {}
    for name in ("train", "sweep", "attribute"):
        out = tmp_path / name
        assert run([name, "--config", cfg, "--out", out]) == 0
        manifests[name] = json.loads((out / f"{name}.manifest.json").read_text())
    assert "steps" not in manifests["train"] and "steps" not in manifests["sweep"]
    assert manifests["attribute"]["steps"] == 7
    assert manifests["train"]["hidden"] == [8] and manifests["train"]["seed"] == 4
    assert manifests["sweep"]["qualities"] == ["original", 50]
    assert manifests["sweep"]["metric"] == "accuracy" and "hidden" not in manifests["sweep"]
    assert manifests["attribute"]["checkpoint"] == str(ckpt)
    assert "checkpoint" not in manifests["train"]
    assert (tmp_path / "sweep" / "precision.csv").read_text().startswith(
        "model,quality,score\ncheckpoint,original,")


@pytest.mark.parametrize("doc, message", [
    ({"scheme": "simpson"}, "argument --scheme: invalid choice: 'simpson'"),
    ({"steps": 2.5}, "bad value for steps: '2.5'"),
    ({"qualities": ["original", 25, 25]}, "bad value for qualities: 'original,25,25'"),
    ({"synthetic": "yes"}, "bad value for synthetic: 'yes'"),
    ({"out": "o", "config": "other.json"}, "unknown config keys ['config']"),
], ids=["choice", "int", "quality-list", "bare-flag", "config-key"])
def test_config_value_is_checked_as_its_flag(tmp_path, capsys, ckpt, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    argv = ["attribute", *TINY, "--checkpoint", ckpt, "--out", out]
    if "scheme" not in doc:
        assert run([*argv, "--config", cfg]) == 2
        assert f"usage error: {message}" in capsys.readouterr().err
    else:  # argparse's own refusal, word for word the one the flag gets on the command line
        errors = []
        for flags in (["--config", cfg], ["--scheme", doc["scheme"]]):
            with pytest.raises(SystemExit) as exc:
                run([*argv, *flags])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert message in errors[0] and errors[0] == errors[1]
    assert not out.exists()


def test_a_config_value_that_begins_with_a_dash_is_its_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": "-o"}))
    assert run(["train", *TINY, *SCORER, "--config", cfg]) == 0
    assert json.loads((tmp_path / "-o" / "train.manifest.json").read_text())["out"] == "-o"


def test_manifest_echoes_only_the_subcommands_own_settings(tmp_path, sample_ppm):
    ckpt = tmp_path / "train" / "checkpoint.json"
    argvs = {
        "train": [*TINY, *SCORER],
        "sweep": [*TINY, "--checkpoint", ckpt, "--qualities", "original,50"],
        "attribute": [*TINY, "--checkpoint", ckpt, "--qualities", "original,50", "--steps", "2"],
        "overlay": ["--in", sample_ppm, "--label", "0", "--checkpoint", ckpt, "--steps", "2"],
        "report": ["--from", tmp_path / "sweep"],
    }
    manifests = {}
    for name, argv in argvs.items():
        out = tmp_path / name
        assert run([name, *argv, "--out", out]) == 0
        manifests[name] = json.loads((out / f"{name}.manifest.json").read_text())
        dests = {a.dest for a in subparsers()[name]._actions} - {"help", "config"}
        assert set(manifests[name]) == dests | {"version", "subcommand"}, name
    assert set(manifests["report"]) == {"version", "subcommand", "out", "metric", "source"}
    assert len(manifests["sweep"]) == 13 and "steps" not in manifests["sweep"]
    assert len(manifests["attribute"]) == 15 and len(manifests["train"]) == 15


def test_readme_cli_examples_parse():
    text = README.read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("igprobe ")]
    assert {c[1] for c in commands} == set(subparsers())
    for command in commands:
        build_parser().parse_args(command[1:])


def test_readme_flag_table_matches_parser():
    text = README.read_text()
    table = re.search(r"^\| subcommand \| flags \|\n\|[-|]+\|\n((?:\|.*\n)+)", text, re.M).group(1)
    rows = {}
    for line in table.splitlines():
        name, flags = re.match(r"\| `(\w+)` \| (.*) \|$", line).groups()
        rows[name] = set(re.findall(r"`(--[\w-]+)", flags))
    assert set(rows) == set(subparsers())
    for name, parser in subparsers().items():
        options = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert rows[name] == options - {"--help"}, name


def test_manifest_has_no_timestamps(tmp_path):
    out = tmp_path / "run"
    argv = ["train", *TINY, *SCORER, "--seed", "4", "--out", out]
    assert run(argv) == 0
    first = (out / "train.manifest.json").read_bytes()
    assert run(argv) == 0
    assert (out / "train.manifest.json").read_bytes() == first

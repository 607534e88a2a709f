"""Command-line behavior: flows, validation, persistence, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from almsvm.alm import SolverConfig
from almsvm.cli import _config, build_parser, main, read_model, write_model
from almsvm.data_io import Dataset, format_float, load_libsvm, write_libsvm
from almsvm.metrics import Model, predict, predict_label, predict_labels, scores
from almsvm.synthetic import svc_blobs, svc_margin_gap, svr_planted


@pytest.fixture
def svc_file(tmp_path):
    data = svc_blobs(200, 10, separation=8.0, scale=1.5, seed=7)
    path = tmp_path / "blobs.libsvm"
    write_libsvm(data, path)
    return path


@pytest.fixture
def svr_file(tmp_path):
    data = svr_planted(120, 12, out_frac=0.05, seed=3)
    path = tmp_path / "reg.libsvm"
    write_libsvm(data, path)
    return path


class TestTrain:
    def test_train_writes_model_and_report(self, svc_file, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        rc = main(["train", "--task", "svc", "--data", str(svc_file),
                   "--model", str(model_path)])
        assert rc == 0
        captured = capsys.readouterr()
        out = captured.out
        for field in ("k=", "it_sn=", "it_cg=", "time_s=", "kkt=", "gap=",
                      "obj="):
            assert field in out
        assert "status=converged" in captured.err
        # more than n/2 = 5 rows stay free after every outer iteration
        assert "\nfinish=none\n" in captured.err
        model = read_model(model_path)
        assert model.task == "svc"
        assert model.w.size == 10
        assert model.c_used == pytest.approx(550.0 / 200)

    def test_train_reports_an_accepted_finish(self, tmp_path, capsys):
        # the active-set finish after outer 0 certifies the solve
        data = tmp_path / "gap.libsvm"
        write_libsvm(svc_margin_gap(5000, 123, density=0.11, seed=23), data)
        assert main(["train", "--task", "svc", "--data", str(data),
                     "--model", str(tmp_path / "m.model")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("status=converged\nfinish=accepted outer=0 "
                                "rounds=2 cg=3 free=0\n")
        assert captured.out.startswith("k=1 it_sn=16 ")

    def test_train_svr(self, svr_file, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        rc = main(["train", "--task", "svr", "--data", str(svr_file),
                   "--model", str(model_path)])
        assert rc == 0
        model = read_model(model_path)
        assert model.task == "svr"
        assert model.eps_used == 0.1
        assert model.c_used == pytest.approx(5.0 / 12)

    def test_train_with_bias(self, svc_file, tmp_path):
        model_path = tmp_path / "m.model"
        main(["train", "--task", "svc", "--data", str(svc_file),
              "--model", str(model_path), "--bias"])
        model = read_model(model_path)
        assert model.bias_augmented
        assert model.w.size == 11

    def test_unconverged_train_reports_status_and_exits_0(self, svc_file,
                                                           tmp_path, capsys):
        rc = main(["train", "--task", "svc", "--data", str(svc_file),
                   "--model", str(tmp_path / "m.model"), "--max-outer", "1"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "status=max_outer" in err
        assert "warning: max_outer=1 reached" in err

    def test_missing_data_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--task", "svc", "--model", str(tmp_path / "m")])
        assert excinfo.value.code == 2

    def test_solver_flags_default_to_the_library_config(self):
        args = build_parser().parse_args(
            ["train", "--task", "svc", "--data", "d", "--model", "m"])
        assert _config(args) == SolverConfig()

    def test_seed_is_a_bench_flag_only(self, svc_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--task", "svc", "--data", str(svc_file),
                  "--model", str(tmp_path / "m"), "--seed", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--c", "0")] + [
        (flag, value)
        for flag in ("--c", "--c-scale", "--c-scale-svr", "--epsilon", "--tol",
                     "--sigma0", "--sigma-max")
        for value in ("inf", "nan")])
    def test_bad_number_flag_exits_2(self, svc_file, tmp_path, capsys, flag,
                                     value):
        model = tmp_path / "m"
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--task", "svc", "--data", str(svc_file),
                  "--model", str(model), flag, value])
        assert excinfo.value.code == 2
        fragment = ("C must be positive" if value == "0"
                    else f"{flag} must be finite")
        assert fragment in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("flags,message", [
        (["--theta", "nan"], "theta must be in (0, 1]"),
        (["--theta", "0"], "theta must be in (0, 1]"),
        (["--theta", "1.5"], "theta must be in (0, 1]"),
        (["--sigma0", "-1"], "need 0 < sigma0 <= sigma_max"),
        (["--sigma0", "1", "--sigma-max", "0.5"],
         "need 0 < sigma0 <= sigma_max"),
        (["--max-outer", "0"], "max_outer must be >= 1"),
    ])
    def test_bad_solver_flag_exits_2_before_reading_data(
            self, tmp_path, capsys, command, flags, message):
        # the data file does not exist: reading it would exit 1
        missing, model = tmp_path / "nope.libsvm", tmp_path / "m"
        argv = {"train": ["train", "--task", "svc", "--data", str(missing),
                          "--model", str(model)],
                "bench": ["bench", "--task", "svc", "--data", str(missing)]}
        with pytest.raises(SystemExit) as excinfo:
            main(argv[command] + flags)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("content,flags,message", [
        (b"1\n2\n", ["--task", "svr"], "the training set has no features"),
        (b"", ["--task", "svr", "--bias"], "the training set has no samples"),
        (b"1 1:1\n1 2:1\n", ["--task", "svc"],
         "expected exactly two distinct labels"),
    ])
    def test_empty_training_set_is_an_error(self, tmp_path, capsys, content,
                                            flags, message):
        # the error names the data file, as bench's does
        data, model = tmp_path / "empty.libsvm", tmp_path / "m.model"
        data.write_bytes(content)
        rc = main(["train", *flags, "--data", str(data), "--model", str(model)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not model.exists()

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = main(["train", "--task", "svc", "--data",
                   str(tmp_path / "nope.libsvm"), "--model",
                   str(tmp_path / "m")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize("content,message", [
    (b"1 1:1\n\xff 2:1\n", "line 2: invalid UTF-8 byte 0xff"),
    (b"1 1:1\r\n-1 2:1 1:1\r\n", "line 2: index 1 not strictly increasing"),
    (b"1 1:1\n-1 2:x\n", "line 2: malformed token '2:x'"),
])
def test_data_file_errors_name_the_file_and_line(tmp_path, capsys, command,
                                                 content, message):
    data, model = tmp_path / "bad.libsvm", tmp_path / "m.model"
    data.write_bytes(content)
    if command == "train":
        argv = ["train", "--task", "svc", "--data", str(data),
                "--model", str(model)]
    else:
        write_model(Model(w=[0.5, -0.5], task="svc", label_map=(-1.0, 1.0),
                          c_used=1.0), model)
        argv = ["predict", "--model", str(model), "--data", str(data)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {data}: {message}\n"


@pytest.mark.parametrize("command", ["train", "bench"])
def test_narrow_n_features_names_the_file_once(tmp_path, capsys, command):
    data = tmp_path / "wide.libsvm"
    data.write_bytes(b"1 5:1\n-1 2:1\n")
    argv = [command, "--task", "svc", "--data", str(data), "--n-features", "1"]
    if command == "train":
        argv += ["--model", str(tmp_path / "m.model")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: n_features=1 below max index 5 in data\n")


class TestModelFile:
    def test_round_trip_is_byte_identical(self, tmp_path, rng):
        model = Model(w=rng.normal(size=7), task="svc",
                      bias_augmented=True, label_map=(0.0, 1.0),
                      c_used=2.75, eps_used=0.0)
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        write_model(model, p1)
        write_model(read_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kwargs", [
        dict(task="svc"),
        dict(task="svr", bias_augmented=True, c_used=0.1, eps_used=0.25),
        dict(task="svc", label_map=(-2.5, 7.0), c_used=1e-300),
        dict(task="svr", c_used=-1.0, eps_used=-0.0),
    ])
    def test_every_accepted_model_reads_back(self, tmp_path, kwargs):
        model = Model(w=[0.5, -0.0, 1e-310], **kwargs)
        path = tmp_path / "m.model"
        write_model(model, path)
        back = read_model(path)
        assert back.w.tobytes() == model.w.tobytes()
        for name in ("task", "bias_augmented", "label_map", "c_used",
                     "eps_used"):
            assert getattr(back, name) == getattr(model, name)

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(task="SVC"), "unknown task 'SVC'"),
        (dict(task="svc", c_used=float("inf")), "finite"),
        (dict(task="svr", eps_used=float("nan")), "finite"),
        (dict(task="svc", label_map=(0.0, float("nan"))), "labels must be finite"),
        (dict(task="svc", label_map=(0.0, 1.0, 2.0)), "pair"),
    ])
    def test_model_rejects_what_read_model_rejects(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            Model(w=[1.0], **kwargs)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            read_model(path)

    def test_rejects_truncated_weights(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text(
            "alm-svm v1 task=svc n=3 bias=0 c=1.0 eps=0.0 labels=none\n0.5\n"
        )
        with pytest.raises(ValueError, match="expected 3 weights"):
            read_model(path)

    @pytest.mark.parametrize("header,fragment", [
        ("task=svc n=1 bias=0 c=1.0 eps=0.0 nolabels=1", "lacks labels"),
        ("task=xyz n=1 bias=0 c=1.0 eps=0.0 labels=none", "unknown task"),
        ("task=svc n=1 bias=2 c=1.0 eps=0.0 labels=none", "bias"),
        ("task=svc n=0 bias=0 c=1.0 eps=0.0 labels=none", "n must be"),
        ("task=svc n=x bias=0 c=1.0 eps=0.0 labels=none", "invalid literal"),
        ("task=svc n=1 bias=0 c=inf eps=0.0 labels=none", "finite"),
        ("task=svc n=1 bias=0 c=1.0 eps=nan labels=none", "finite"),
        ("task=svc n=1 bias=0 c=1.0 eps=0.0 labels=1:2:3", "labels"),
        ("task=svc n=1 bias=0 c=1.0 eps=0.0 labels", "lacks labels"),
    ])
    def test_bad_header_is_an_error_naming_the_file(self, svc_file, tmp_path,
                                                    capsys, header, fragment):
        path = tmp_path / "bad.model"
        path.write_text(f"alm-svm v1 {header}\n0.5\n")
        rc = main(["predict", "--model", str(path), "--data", str(svc_file)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err and fragment in err

    @pytest.mark.parametrize("weight,reason", [
        ("abc", "is not a number"),
        ("", "is not a number"),
        ("nan", "is not finite"),
        ("1e999", "is not finite"),
    ])
    def test_bad_weight_names_its_line(self, svc_file, tmp_path, capsys,
                                       weight, reason):
        path = tmp_path / "m.model"
        path.write_text("alm-svm v1 task=svc n=3 bias=0 c=1.0 eps=0.0 "
                        f"labels=none\n0.5\n{weight}\nx\n")
        rc = main(["predict", "--model", str(path), "--data", str(svc_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: weight {weight!r} {reason}\n")

    @pytest.mark.parametrize("labels,weight,line", [
        (b"\xff:1", b"0.5", 1),
        (b"none", b"0.5\xff", 2),
    ])
    def test_invalid_utf8_names_the_file_and_line(self, svc_file, tmp_path,
                                                  capsys, labels, weight, line):
        path = tmp_path / "m.model"
        path.write_bytes(b"alm-svm v1 task=svc n=1 bias=0 c=1.0 eps=0.0 labels="
                         + labels + b"\n" + weight + b"\n")
        rc = main(["predict", "--model", str(path), "--data", str(svc_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line {line}: invalid UTF-8 byte 0xff\n")


class TestPredictEval:
    def test_predictions_match_library_calls(self, svc_file, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--task", "svc", "--data", str(svc_file),
              "--model", str(model_path)])
        capsys.readouterr()
        out_path = tmp_path / "pred.txt"
        rc = main(["predict", "--model", str(model_path), "--data",
                   str(svc_file), "--output", str(out_path)])
        assert rc == 0
        got = [float(v) for v in out_path.read_text().split()]
        model = read_model(model_path)
        data = load_libsvm(svc_file)
        expected = [predict_label(model, s) for s in data.samples]
        assert got == expected

    def test_svr_predictions_are_raw_scores(self, svr_file, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--task", "svr", "--data", str(svr_file),
              "--model", str(model_path)])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model_path), "--data",
                   str(svr_file)])
        assert rc == 0
        got = [float(v) for v in capsys.readouterr().out.split()]
        model = read_model(model_path)
        data = load_libsvm(svr_file)
        assert got == [predict(model, s) for s in data.samples]

    @pytest.mark.parametrize("pair,bias", [
        ((-1.0, 1.0), False), ((0.0, 1.0), False), ((2.0, 5.0), True)])
    def test_svc_prediction_file_is_byte_identical_to_per_value_formatting(
            self, tmp_path, capsys, pair, bias):
        data = svc_blobs(200, 10, separation=1.0, scale=1.5, seed=7)
        data = Dataset(data.samples, np.where(data.labels < 0, *pair),
                       data.n_features)
        data_path, model_path = tmp_path / "d.libsvm", tmp_path / "m.model"
        write_libsvm(data, data_path)
        main(["train", "--task", "svc", "--data", str(data_path), "--model",
              str(model_path)] + (["--bias"] if bias else []))
        out_path = tmp_path / "pred.txt"
        assert main(["predict", "--model", str(model_path), "--data",
                     str(data_path), "--output", str(out_path)]) == 0
        model = read_model(model_path)
        assert model.label_map == pair and model.bias_augmented == bias
        labels = predict_labels(model, load_libsvm(data_path)).tolist()
        assert set(labels) == set(pair)
        expected = "".join(format_float(v) + "\n" for v in labels)
        assert out_path.read_bytes() == expected.encode()

    def test_a_zero_score_predicts_the_upper_label(self, svc_file, tmp_path,
                                                   capsys):
        model_path = tmp_path / "m.model"
        write_model(Model(w=[0.0] * 10, task="svc", label_map=(2.0, 5.0)),
                    model_path)
        assert main(["predict", "--model", str(model_path), "--data",
                     str(svc_file)]) == 0
        assert capsys.readouterr().out == "5.0\n" * 200

    def test_svr_prediction_file_is_byte_identical_to_per_value_formatting(
            self, svr_file, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--task", "svr", "--data", str(svr_file), "--model",
              str(model_path), "--bias"])
        out_path = tmp_path / "pred.txt"
        assert main(["predict", "--model", str(model_path), "--data",
                     str(svr_file), "--output", str(out_path)]) == 0
        values = scores(read_model(model_path), load_libsvm(svr_file)).tolist()
        expected = "".join(format_float(v) + "\n" for v in values)
        assert out_path.read_bytes() == expected.encode()

    def test_empty_data_gives_empty_output(self, svc_file, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--task", "svc", "--data", str(svc_file),
              "--model", str(model_path)])
        empty = tmp_path / "empty.libsvm"
        empty.write_text("")
        capsys.readouterr()
        rc = main(["predict", "--model", str(model_path), "--data", str(empty)])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_eval_prints_accuracy(self, svc_file, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--task", "svc", "--data", str(svc_file),
              "--model", str(model_path)])
        capsys.readouterr()
        rc = main(["eval", "--model", str(model_path), "--data", str(svc_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")
        assert float(out.split("=")[1]) == 100.0

    def test_eval_prints_mse(self, svr_file, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--task", "svr", "--data", str(svr_file),
              "--model", str(model_path)])
        capsys.readouterr()
        rc = main(["eval", "--model", str(model_path), "--data", str(svr_file)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("mse=")


class TestBench:
    def test_csv_header_and_determinism(self, svc_file, capsys):
        args = ["bench", "--data", str(svc_file), "--task", "svc",
                "--split", "0.8", "--seed", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out.splitlines()
        assert main(args) == 0
        second = capsys.readouterr().out.splitlines()
        assert first[0] == "dataset,k,it_sn,it_cg,time_s,metric"

        def strip_time(line):
            parts = line.split(",")
            parts[4] = ""
            return ",".join(parts)

        assert [strip_time(r) for r in first[1:]] == [
            strip_time(r) for r in second[1:]
        ]

    def test_invalid_split_exits_2(self, svc_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--data", str(svc_file), "--task", "svc",
                  "--split", "1.5"])
        assert excinfo.value.code == 2

    def test_training_split_without_features_is_an_error(self, tmp_path,
                                                          capsys):
        data = tmp_path / "labels.libsvm"
        data.write_bytes(b"1\n2\n3\n4\n5\n")
        assert main(["bench", "--data", str(data), "--task", "svr"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {data}: the training set has no features\n")
        assert captured.out == ""

    def test_error_names_the_dataset_it_came_from(self, svc_file, tmp_path,
                                                  capsys):
        # the first file trains; the second has labels and no features
        labels_only = tmp_path / "labels.libsvm"
        labels_only.write_bytes(b"1\n-1\n1\n-1\n1\n")
        assert main(["bench", "--data", str(svc_file), str(labels_only),
                     "--task", "svc"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {labels_only}: the training set has no features\n")
        assert captured.out == ""

    def test_parse_error_names_the_file_once(self, svc_file, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_bytes(b"1 1:1\n-1 2:x\n")
        assert main(["bench", "--data", str(svc_file), str(bad),
                     "--task", "svc"]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: line 2: malformed token '2:x'\n")

    def test_history_dumps(self, svc_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["bench", "--data", str(svc_file), "--task", "svc",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        [report] = json.loads(trace.read_text())
        assert report["dataset"] == "blobs"
        outer = report["outer"]
        assert len(outer) == report["k"] >= 1
        assert outer[0]["newton"]["active_set_sizes"][0] >= 0
        for rec in outer:
            newton = rec["newton"]
            assert len(newton["grad_norms"]) == newton["iterations"] + 1
            assert newton["cg_breakdowns"] == newton["descent_fallbacks"] == 0
        # the split's 160 training rows leave at most n/2 = 5 rows free
        # after some outer iteration, and the active-set finish there
        # ends the solve: its record carries the final certificate
        [finish] = report["finish"]
        assert finish["outcome"] == "accepted"
        assert finish["outer"] == report["k"] - 1
        assert finish["rounds"] >= 1 and finish["free"] <= 5
        # one count of moved rows per round, the last one none
        assert len(finish["moved"]) == finish["rounds"]
        assert finish["moved"][-1] == 0 and 0 <= finish["tight"] <= finish["rounds"]
        last = finish
        assert max(last["r1"], last["r2"], last["r3"]) == report["kkt_residual"]
        assert last["primal"] == report["objective"]

    def test_multiple_datasets_with_jobs(self, svc_file, tmp_path, capsys):
        # two copies of the same classification set, solved one after another
        other = tmp_path / "copy.libsvm"
        other.write_text(svc_file.read_text())
        trace = tmp_path / "trace.json"
        assert main(["bench", "--data", str(svc_file), str(other),
                     "--task", "svc", "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "blobs"
        assert lines[2].split(",")[0] == "copy"
        # identical data must produce identical rows modulo time
        a = lines[1].split(","); b = lines[2].split(",")
        assert a[1:4] == b[1:4] and a[5] == b[5]
        reports = json.loads(trace.read_text())
        assert [r["dataset"] for r in reports] == ["blobs", "copy"]
        assert reports[0]["outer"] == reports[1]["outer"]


_STARTUP_PROBE = """
import sys
import almsvm, almsvm.cli
model, data, out = sys.argv[1:]
loaded = ["scipy" in sys.modules]
for argv in (["predict", "--model", model, "--data", data, "--output", out],
             ["eval", "--model", model, "--data", data],
             ["train", "--task", "svc", "--data", data, "--model", out],
             ["bench", "--data", data, "--task", "svc"]):
    assert almsvm.cli.main(argv) == 0
    loaded.append("scipy" in sys.modules)
kernels = almsvm.sparse._kernels
loaded.append(any(m is kernels for m in sys.modules.values()))
print(loaded)
"""


def test_import_predict_and_eval_never_load_scipy(svc_file, tmp_path):
    # import almsvm loads scipy's kernel extension by path, outside
    # sys.modules, and no command imports the scipy package
    model = tmp_path / "m.model"
    write_model(Model(w=[0.5] * 10, task="svc"), model)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(model), str(svc_file),
         str(tmp_path / "out.txt")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == str([False] * 6)


def test_module_entry_point_runs_in_a_fresh_interpreter():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "almsvm", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: alm-svm" in proc.stdout

import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import rrsitr
from rrsitr import cli
from rrsitr.cli import main
from rrsitr.data import read_dataset
from rrsitr.trainer import Hyper


def _gen(tmp_path, name="train.rrse", n=60, seed=1, extra=()):
    out = str(tmp_path / name)
    rc = main(["gen", "--n", str(n), "--classes", "4", "--dim", "8", "--d1", "2",
               "--d2", "2", "--seed", str(seed), "-o", out, *extra])
    assert rc == 0
    return out


def test_gen_roundtrip(tmp_path, capsys):
    out = _gen(tmp_path)
    ds = read_dataset(out)
    assert ds.n_pairs == 60 and ds.dim == 8
    assert np.all(ds.y == 1)
    assert os.path.exists(out + ".json")
    assert "matched-pair" in capsys.readouterr().out


def test_gen_summary_matches_similarity_matrix():
    from rrsitr.cli import _mean_pair_similarities
    from rrsitr.data import generate_synthetic
    from rrsitr.similarity import global_similarity

    ds = generate_synthetic(37, 4, 8, 2, 2, intra_class_spread=0.5, seed=3)
    Sg = global_similarity(ds.image_global, ds.text_global)
    n = ds.n_pairs
    matched, off = _mean_pair_similarities(ds.image_global, ds.text_global)
    assert abs(matched - np.diag(Sg).mean()) <= 1e-12
    assert abs(off - (Sg.sum() - np.trace(Sg)) / (n * (n - 1))) <= 1e-12
    one = generate_synthetic(1, 2, 8, 2, 2, intra_class_spread=0.5, seed=3)
    assert np.isnan(_mean_pair_similarities(one.image_global, one.text_global)[1])


def test_gen_missing_output_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "10"])
    assert exc.value.code == 2


def test_gen_invalid_dim_exit_code(tmp_path):
    rc = main(["gen", "--n", "10", "--dim", "0", "--seed", "1",
               "-o", str(tmp_path / "x.rrse")])
    assert rc == 2


def test_inject_counts_and_determinism(tmp_path):
    src = _gen(tmp_path, n=100)
    out1 = str(tmp_path / "n1.rrse")
    out2 = str(tmp_path / "n2.rrse")
    assert main(["inject", src, "--rho", "0.4", "--seed", "7", "-o", out1]) == 0
    assert main(["inject", src, "--rho", "0.4", "--seed", "7", "-o", out2]) == 0
    a, b = read_dataset(out1), read_dataset(out2)
    assert int((a.y == 0).sum()) == 40
    assert np.array_equal(a.text_global, b.text_global)
    man = json.load(open(out1 + ".json"))
    assert man["noise"] == {"rho": 0.4, "seed": 7}


def test_inject_bad_rho(tmp_path):
    src = _gen(tmp_path)
    rc = main(["inject", src, "--rho", "1.5", "-o", str(tmp_path / "x.rrse")])
    assert rc == 2


def test_inject_missing_file(tmp_path):
    rc = main(["inject", str(tmp_path / "absent.rrse"), "--rho", "0.2",
               "-o", str(tmp_path / "x.rrse")])
    assert rc == 3


def test_train_eval_trace_flow(tmp_path, capsys):
    train_file = _gen(tmp_path, "train.rrse", n=60, seed=1)
    val_file = _gen(tmp_path, "val.rrse", n=30, seed=2)
    noisy = str(tmp_path / "noisy.rrse")
    assert main(["inject", train_file, "--rho", "0.4", "--seed", "3", "-o", noisy]) == 0

    out_dir = str(tmp_path / "run")
    rc = main(["train", "--data", noisy + ".json", "--val", val_file,
               "--out-dir", out_dir, "--epochs", "2", "--batch", "10",
               "--gamma1", "2", "--gamma2", "9", "--warmup", "4", "--seed", "5",
               "--trace-epochs", "1,2"])
    assert rc == 0
    assert os.path.exists(os.path.join(out_dir, "manifest.json"))
    manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
    assert manifest["dataset"]["noise"] == {"rho": 0.4, "seed": 3}
    assert manifest["hyper"]["gamma1"] == 2.0
    ckpt = os.path.join(out_dir, "train.rrsp")
    assert os.path.exists(ckpt)
    log_lines = open(os.path.join(out_dir, "train.log.jsonl")).read().splitlines()
    assert len(log_lines) == 2
    assert json.loads(log_lines[0])["epoch"] == 1
    trace_csv = os.path.join(out_dir, "train.trace_epoch_2.csv")
    assert open(trace_csv).readline().strip() == "epoch,pair_id,y,l_total,w,bucket"

    rc = main(["eval", "--checkpoint", ckpt, "--data", val_file,
               "-o", str(tmp_path / "report.json")])
    assert rc == 0
    report = json.load(open(tmp_path / "report.json"))
    assert set(report) == {"i2t_r1", "i2t_r5", "i2t_r10", "t2i_r1", "t2i_r5",
                           "t2i_r10", "mr"}


def test_eval_rejects_flags_it_does_not_read(tmp_path, capsys):
    from rrsitr.trainer import init_heads, save_heads

    data = _gen(tmp_path, n=20)
    ckpt = str(tmp_path / "h.rrsp")
    save_heads(init_heads(8), ckpt)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", ckpt, "--data", data, "--lr", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lr 5" in capsys.readouterr().err


def test_eval_has_no_training_thresholds(tmp_path, capsys):
    # --gamma1 is a training flag: eval refuses it as unknown usage, not by
    # checking it against a gamma2 it never uses
    from rrsitr.trainer import init_heads, save_heads

    data = _gen(tmp_path, n=20)
    ckpt = str(tmp_path / "h.rrsp")
    save_heads(init_heads(8), ckpt)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", ckpt, "--data", data, "--gamma1", "20"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --gamma1 20" in err and "gamma2" not in err
    assert main(["eval", "--checkpoint", ckpt, "--data", data, "--alpha", "0.5",
                 "--threads", "1"]) == 0
    assert main(["eval", "--checkpoint", ckpt, "--data", data, "--alpha", "1.5"]) == 2


def _run_python(args, stdin_bytes=None):
    # the child imports the same rrsitr as this process, installed or not
    src = os.path.dirname(os.path.dirname(rrsitr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], input=stdin_bytes, capture_output=True,
                          env=env)


def _run_cli(args, stdin_bytes):
    return _run_python(["-m", "rrsitr.cli", *args], stdin_bytes)


def test_threads_leaves_env_alone_once_numpy_is_loaded(tmp_path, monkeypatch):
    # in this process numpy is loaded, so --threads cannot cap BLAS and must
    # not rewrite the thread variables the process and its children inherit
    from rrsitr.trainer import init_heads, save_heads

    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in names:
        monkeypatch.setenv(var, "7")
    data = _gen(tmp_path, n=20)
    ckpt = str(tmp_path / "h.rrsp")
    save_heads(init_heads(8), ckpt)
    assert main(["eval", "--checkpoint", ckpt, "--data", data, "--threads", "3"]) == 0
    assert [os.environ[v] for v in names] == ["7", "7", "7"]


@pytest.mark.parametrize("flag", [["--threads", "0"], ["--threads", "-2"], ["--threads=0"],
                                  ["--threads", "two"]])
def test_threads_below_one_exits_2_and_sets_no_variable(flag):
    # OpenBLAS reads a count of 0 or below as "all cores": refuse it before the
    # thread variables are written, in a process that has not loaded numpy
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    code = ("import os, sys\n"
            f"for v in {names!r}: os.environ.pop(v, None)\n"
            "from rrsitr.cli import main\n"
            "try:\n"
            f"    main(['eval', '--checkpoint', 'c.rrsp', '--data', 'd.rrse', *{flag!r}])\n"
            "except SystemExit as e:\n"
            "    print(e.code, 'numpy' in sys.modules,\n"
            f"          [v for v in {names!r} if v in os.environ])\n")
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["2", "False", "[]"]
    assert "--threads: must be a positive integer" in proc.stderr.decode()


def test_threads_of_one_still_sets_the_variables():
    code = ("import os\n"
            "from rrsitr.cli import _apply_threads_early\n"
            "_apply_threads_early(['eval', '--threads', '1'])\n"
            "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])\n")
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["1", "1"]


def test_git_describe_names_the_package_checkout(tmp_path, monkeypatch):
    pkg = os.path.dirname(os.path.abspath(cli.__file__))
    try:
        want = subprocess.run(["git", "-C", pkg, "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=5)
    except OSError:
        pytest.skip("git is not installed")
    if want.returncode != 0:
        pytest.skip("the package is not in a git checkout")
    monkeypatch.chdir(tmp_path)
    assert cli._git_describe() == want.stdout.strip()


def test_eval_checkpoint_dims_beyond_file_exit_3(tmp_path, capsys):
    # a header claiming 60000x60000 heads in a 96-byte file fails on the file
    # size, before the 28.8 GB block is allocated
    import struct

    from rrsitr.errors import FormatError
    from rrsitr.trainer import load_heads

    ckpt = tmp_path / "big.rrsp"
    ckpt.write_bytes(b"RRSP" + struct.pack("<3I", 1, 60000, 60000) + b"\0" * 80)
    with pytest.raises(FormatError, match="'W_img' at byte offset 16, got 80"):
        load_heads(str(ckpt))
    data = _gen(tmp_path, n=20)
    assert main(["eval", "--checkpoint", str(ckpt), "--data", data]) == 3
    assert "'W_img'" in capsys.readouterr().err


def test_eval_non_finite_checkpoint_exit_3(tmp_path, capsys):
    # a NaN compares false with everything, so heads holding one used to rank
    # every item first and report mr 100 with exit 0
    import struct

    data = _gen(tmp_path, n=20)
    W_img = np.eye(8)
    W_img[3, 5] = np.nan
    ckpt = tmp_path / "nan.rrsp"
    ckpt.write_bytes(b"RRSP" + struct.pack("<3I", 1, 8, 8)
                     + b"".join(a.astype("<f8").tobytes()
                                for a in (W_img, np.zeros(8), np.eye(8), np.zeros(8))))
    assert main(["eval", "--checkpoint", str(ckpt), "--data", data]) == 3
    captured = capsys.readouterr()
    assert "non-finite value in checkpoint block 'W_img'" in captured.err
    assert "mr" not in captured.out


def test_eval_piped_checkpoint_dims_beyond_its_bytes_exit_3(tmp_path):
    # a pipe has no size to check, so the 96 bytes are read before any block
    # is allocated: the 28.8 GB claim fails on the 80 bytes that came
    import struct

    data = _gen(tmp_path, n=20)
    blob = b"RRSP" + struct.pack("<3I", 1, 60000, 60000) + b"\0" * 80
    proc = _run_cli(["eval", "--checkpoint", "/dev/stdin", "--data", data], blob)
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert "Traceback" not in err
    assert (f"expected {8 * 60000 * 60000} bytes for section 'W_img' at byte offset 16, "
            "got 80") in err


def test_importing_the_cli_loads_no_numpy():
    # numpy starts its BLAS thread pool when it loads, so --threads can cap the
    # pool only if importing the CLI (and the package) leaves numpy unloaded
    proc = _run_python(["-c", "import sys, rrsitr.cli; print('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "False"


@pytest.mark.parametrize("case", ["complete", "truncated", "trailing"])
def test_inject_reads_a_pipe(tmp_path, case):
    # offsets are counted from the bytes read, so a pipe (no tell()) fails as a
    # file does: exit 3 naming the section and offset, not an OSError traceback
    src = _gen(tmp_path, n=60)   # dim 8, d1 = d2 = 2
    blob = open(src, "rb").read()
    start = 24 + 4 * 60 * 8      # image_local
    piped = {"complete": blob, "truncated": blob[:start + 100],
             "trailing": blob + b"\x00"}[case]
    out = str(tmp_path / "x.rrse")
    proc = _run_cli(["inject", "/dev/stdin", "--rho", "0.2", "--seed", "1", "-o", out], piped)
    err = proc.stderr.decode()
    if case == "complete":
        assert proc.returncode == 0, err
        assert read_dataset(out).n_pairs == 60
        return
    assert proc.returncode == 3, err
    assert "Traceback" not in err
    if case == "truncated":
        assert (f"expected {4 * 60 * 2 * 8} bytes for section 'image_local' "
                f"at byte offset {start}, got 100") in err
    else:
        assert f"trailing bytes after the last section at byte offset {len(blob)}" in err


def test_eval_refuses_noisy_data(tmp_path):
    train_file = _gen(tmp_path, n=40)
    noisy = str(tmp_path / "noisy.rrse")
    main(["inject", train_file, "--rho", "0.5", "--seed", "1", "-o", noisy])
    out_dir = str(tmp_path / "run")
    main(["train", "--data", train_file, "--out-dir", out_dir, "--epochs", "1",
          "--batch", "10", "--gamma1", "2", "--gamma2", "9", "--seed", "1"])
    rc = main(["eval", "--checkpoint", os.path.join(out_dir, "train.rrsp"),
               "--data", noisy])
    assert rc == 3


def test_eval_rejects_label_outside_0_1(tmp_path, capsys):
    from rrsitr.trainer import init_heads, save_heads

    data = _gen(tmp_path, n=20)
    n, dim, d1, d2 = 20, 8, 2, 2
    y_offset = 24 + 4 * (n * dim + n * d1 * dim + n * dim + n * d2 * dim)
    with open(data, "r+b") as f:
        f.seek(y_offset + 5)
        f.write(bytes([7]))
    ckpt = str(tmp_path / "h.rrsp")
    save_heads(init_heads(dim), ckpt)
    rc = main(["eval", "--checkpoint", ckpt, "--data", data])
    assert rc == 3
    assert "y must be 0 or 1" in capsys.readouterr().err


def test_train_rejects_non_unit_rows(tmp_path, capsys):
    data = _gen(tmp_path, n=20)
    with open(data, "r+b") as f:
        f.seek(24)  # first value of image_global row 0
        f.write(np.float32(3.0).tobytes())
    capsys.readouterr()
    rc = main(["train", "--data", data, "--out-dir", str(tmp_path / "run"), "--epochs", "1",
               "--batch", "10", "--seed", "1"])
    assert rc == 3
    assert "image_global row (0,) has norm" in capsys.readouterr().err


def test_trace_bad_epoch_list(tmp_path, capsys):
    train_file = _gen(tmp_path, n=40)
    capsys.readouterr()
    rc = main(["trace", "--data", train_file, "--epochs", "1,b",
               "--out-dir", str(tmp_path / "tr"), "--seed", "0"])
    assert rc == 2
    assert "'b'" in capsys.readouterr().err


def test_trace_command(tmp_path):
    train_file = _gen(tmp_path, n=40)
    out_dir = str(tmp_path / "tr")
    rc = main(["trace", "--data", train_file, "--epochs", "1,2",
               "--out-dir", out_dir, "--batch", "10",
               "--gamma1", "2", "--gamma2", "9", "--seed", "0"])
    assert rc == 0
    for e in (1, 2):
        path = os.path.join(out_dir, f"trace_epoch_{e}.csv")
        lines = open(path).read().splitlines()
        assert len(lines) == 41  # header + one row per pair
        assert lines[1].startswith(f"{e},0,")


def test_trace_is_train_with_trace_epochs(tmp_path):
    train_file = _gen(tmp_path, n=40)
    common = ["--data", train_file, "--batch", "10", "--gamma1", "2", "--gamma2", "9",
              "--seed", "0"]
    assert main(["trace", "--epochs", "1,2", "--out-dir", str(tmp_path / "tc"), *common]) == 0
    assert main(["train", "--epochs", "2", "--trace-epochs", "1,2",
                 "--out-dir", str(tmp_path / "tr"), *common]) == 0
    for e in (1, 2):
        assert ((tmp_path / "tc" / f"trace_epoch_{e}.csv").read_bytes()
                == (tmp_path / "tr" / f"train.trace_epoch_{e}.csv").read_bytes())
    assert sorted(os.listdir(tmp_path / "tc")) == [
        "manifest.json", "trace_epoch_1.csv", "trace_epoch_2.csv"]


@pytest.mark.parametrize("argv,variant", [(["train", "--variant", "no_spl", "--epochs", "1"],
                                           "no_spl"),
                                          (["trace", "--epochs", "1"], "full")])
def test_manifest_records_command_and_variant(tmp_path, argv, variant):
    train_file = _gen(tmp_path, n=40)
    out_dir = tmp_path / "run"
    assert main([*argv, "--data", train_file, "--out-dir", str(out_dir), "--batch", "10",
                 "--seed", "0"]) == 0
    manifest = json.load(open(out_dir / "manifest.json"))
    assert (manifest["command"], manifest["variant"]) == (argv[0], variant)


def _built_hyper(monkeypatch, tmp_path, argv):
    """The Hyper a training command builds from argv; the run then stops at its
    absent data file, before any training."""
    built = []
    real = cli._hyper_from_args
    monkeypatch.setattr(cli, "_hyper_from_args", lambda args: built.append(real(args)) or built[-1])
    assert main([*argv, "--data", str(tmp_path / "absent.rrse"),
                 "--out-dir", str(tmp_path / "x")]) == 3
    return built[0]


@pytest.mark.parametrize("command", ["train", "ablate", "trace"])
def test_hyper_defaults_come_from_hyper(monkeypatch, tmp_path, command):
    monkeypatch.delenv("RRSITR_SEED", raising=False)
    if command == "trace":
        got = _built_hyper(monkeypatch, tmp_path, ["trace", "--epochs", "1,3"])
        assert got == Hyper(seed=0, epochs=3)
    else:
        assert _built_hyper(monkeypatch, tmp_path, [command]) == Hyper(seed=0)


EVERY_HYPER_FLAG = ["--tau", "0.1", "--gamma1", "1.5", "--gamma2", "7", "--sigma", "0.4",
                    "--lambda1", "0.3", "--lambda2", "0.2", "--alpha", "0.6", "--lr", "0.002",
                    "--weight-decay", "0.1", "--warmup", "7", "--max-grad-norm", "9",
                    "--batch", "12", "--seed", "3", "--rtl-noisy-only", "--pace-epochs", "2",
                    "--spl-sum-over-all"]


@pytest.mark.parametrize("command", ["train", "ablate", "trace"])
def test_every_hyper_flag_reaches_its_field(monkeypatch, tmp_path, command):
    epochs = ["--epochs", "1", "--train-epochs", "4"] if command == "trace" else ["--epochs", "4"]
    got = _built_hyper(monkeypatch, tmp_path, [command, *epochs, *EVERY_HYPER_FLAG])
    want = Hyper(tau=0.1, gamma1=1.5, gamma2=7.0, sigma=0.4, lambda1=0.3, lambda2=0.2,
                 alpha=0.6, lr=0.002, weight_decay=0.1, warmup_steps=7, max_grad_norm=9.0,
                 epochs=4, batch_size=12, seed=3, rtl_noisy_only=True, pace_epochs=2,
                 spl_sum_over_all=True)
    for f in fields(Hyper):
        # every value differs from the default, so a flag that misses its field shows
        assert getattr(want, f.name) != getattr(Hyper(), f.name), f.name
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_trace_epoch_beyond_run(tmp_path):
    train_file = _gen(tmp_path, n=40)
    rc = main(["trace", "--data", train_file, "--epochs", "9", "--train-epochs", "3",
               "--out-dir", str(tmp_path / "tr"), "--batch", "10", "--seed", "0"])
    assert rc == 2


@pytest.mark.parametrize("epoch", ["99", "0"])
def test_train_rejects_unreached_trace_epoch(tmp_path, capsys, epoch):
    train_file = _gen(tmp_path, n=40)
    out_dir = tmp_path / "tr"
    rc = main(["train", "--data", train_file, "--epochs", "3", "--trace-epochs", epoch,
               "--out-dir", str(out_dir), "--batch", "10", "--seed", "0"])
    assert rc == 2
    assert f"epoch {epoch} was not reached (ran 3)" in capsys.readouterr().err
    assert not out_dir.exists()  # refused before training


def test_ablate_all_results_table(tmp_path):
    train_file = _gen(tmp_path, "train.rrse", n=40, seed=1)
    test_file = _gen(tmp_path, "test.rrse", n=20, seed=9)
    noisy = str(tmp_path / "noisy.rrse")
    main(["inject", train_file, "--rho", "0.5", "--seed", "2", "-o", noisy])
    out_dir = str(tmp_path / "ab")
    rc = main(["ablate", "--data", noisy, "--test", test_file, "--all",
               "--out-dir", out_dir, "--epochs", "1", "--batch", "10",
               "--gamma1", "2", "--gamma2", "9", "--seed", "4"])
    assert rc == 0
    rows = open(os.path.join(out_dir, "results.csv")).read().splitlines()
    assert rows[0].startswith("variant,")
    assert len(rows) == 10  # header + full + 8 variants
    assert {r.split(",")[0] for r in rows[1:]} == {
        "full", "no_local", "no_spl", "no_rtl", "none_of_three",
        "spl_hard_to_easy", "spl_random_weights", "spl_no_ambiguous",
        "fixed_margin_rtl"}


def test_ablate_single_variant(tmp_path):
    train_file = _gen(tmp_path, n=40)
    out_dir = str(tmp_path / "ab1")
    rc = main(["ablate", "--data", train_file, "--variant", "#2",
               "--out-dir", out_dir, "--epochs", "1", "--batch", "10",
               "--gamma1", "2", "--gamma2", "9", "--seed", "4"])
    assert rc == 0
    assert os.path.exists(os.path.join(out_dir, "#2.rrsp"))


def test_ablate_prints_val_mr_of_saved_heads(tmp_path, capsys):
    # at seed 0 validation peaks at epoch 2 of 4 (mR 65.00, 64.44 at the end);
    # ablate saves that epoch's heads and prints their mR
    from rrsitr.evaluation import evaluate
    from rrsitr.trainer import load_heads

    train_file = _gen(tmp_path, "train.rrse", n=60, seed=1)
    val_file = _gen(tmp_path, "val.rrse", n=30, seed=2)
    noisy = str(tmp_path / "noisy.rrse")
    assert main(["inject", train_file, "--rho", "0.4", "--seed", "3", "-o", noisy]) == 0
    out_dir = tmp_path / "ab"
    capsys.readouterr()
    assert main(["ablate", "--data", noisy, "--val", val_file, "--out-dir", str(out_dir),
                 "--epochs", "4", "--batch", "10", "--gamma1", "2", "--gamma2", "9",
                 "--warmup", "4", "--seed", "0"]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    val_mrs = [json.loads(line)["val_mr"] for line in open(out_dir / "full.log.jsonl")]
    best = int(np.argmax(val_mrs))   # the first best, as train keeps
    assert f"{val_mrs[best]:.2f}" != f"{val_mrs[-1]:.2f}"
    saved = evaluate(load_heads(str(out_dir / "full.rrsp")), read_dataset(val_file), Hyper()).mr
    assert saved == val_mrs[best]
    assert printed == f"full: val mR={saved:.2f}"


def test_ablate_validation_only_table(tmp_path):
    # without --test the retrieval columns stay empty and val_mr holds each
    # variant's best-epoch validation mR, the one its saved heads reach
    train_file = _gen(tmp_path, "train.rrse", n=40, seed=1)
    val_file = _gen(tmp_path, "val.rrse", n=20, seed=2)
    noisy = str(tmp_path / "noisy.rrse")
    assert main(["inject", train_file, "--rho", "0.4", "--seed", "3", "-o", noisy]) == 0
    out_dir = tmp_path / "ab"
    assert main(["ablate", "--data", noisy, "--val", val_file, "--variant", "no_rtl",
                 "--out-dir", str(out_dir), "--epochs", "2", "--batch", "10",
                 "--gamma1", "2", "--gamma2", "9", "--seed", "4"]) == 0
    header, row = open(out_dir / "results.csv").read().splitlines()
    assert header.split(",")[-1] == "val_mr"
    cells = row.split(",")
    assert cells[0] == "no_rtl" and cells[1:-1] == [""] * 7
    val_mrs = [json.loads(line)["val_mr"] for line in open(out_dir / "no_rtl.log.jsonl")]
    assert cells[-1] == f"{max(val_mrs):.4f}"


def test_unknown_variant_exit_code(tmp_path):
    train_file = _gen(tmp_path, n=40)
    rc = main(["train", "--data", train_file, "--variant", "bogus",
               "--out-dir", str(tmp_path / "x"), "--epochs", "1",
               "--batch", "10", "--seed", "0"])
    assert rc == 2


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("RRSITR_SEED", "33")
    a = str(tmp_path / "a.rrse")
    b = str(tmp_path / "b.rrse")
    assert main(["gen", "--n", "10", "--classes", "2", "--dim", "4",
                 "--d1", "1", "--d2", "1", "-o", a]) == 0
    assert main(["gen", "--n", "10", "--classes", "2", "--dim", "4",
                 "--d1", "1", "--d2", "1", "--seed", "33", "-o", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_negative_seed_exit_2(tmp_path, capsys):
    rc = main(["gen", "--n", "10", "--classes", "2", "--dim", "4", "--d1", "1", "--d2", "1",
               "--seed", "-3", "-o", str(tmp_path / "g.rrse")])
    assert rc == 2
    assert "--seed must be a non-negative integer" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "g.rrse")


def test_inject_negative_seed_exit_2(tmp_path, capsys):
    src = _gen(tmp_path)
    rc = main(["inject", src, "--rho", "0.2", "--seed", "-1", "-o", str(tmp_path / "x.rrse")])
    assert rc == 2
    assert "--seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_bad_seed_env_exit_2(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("RRSITR_SEED", value)
    rc = main(["gen", "--n", "10", "--classes", "2", "--dim", "4", "--d1", "1", "--d2", "1",
               "-o", str(tmp_path / "g.rrse")])
    assert rc == 2
    assert "RRSITR_SEED must be a non-negative integer" in capsys.readouterr().err


def test_cli_entry_point_subprocess(tmp_path):
    out = str(tmp_path / "s.rrse")
    proc = _run_cli(["gen", "--n", "10", "--classes", "2", "--dim", "4", "--d1", "1",
                     "--d2", "1", "--seed", "1", "-o", out], None)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(out)


def test_identical_invocations_identical_outputs(tmp_path):
    train_file = _gen(tmp_path, n=40)
    outs = []
    for tag in ("r1", "r2"):
        out_dir = str(tmp_path / tag)
        rc = main(["train", "--data", train_file, "--out-dir", out_dir,
                   "--epochs", "2", "--batch", "10", "--gamma1", "2",
                   "--gamma2", "9", "--seed", "6"])
        assert rc == 0
        outs.append(open(os.path.join(out_dir, "train.rrsp"), "rb").read())
    assert outs[0] == outs[1]

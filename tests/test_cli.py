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


def test_inject_one_pair_exit_2(tmp_path, capsys):
    src = _gen(tmp_path, n=10)
    out = tmp_path / "x.rrse"
    assert main(["inject", src, "--rho", "0.1", "--seed", "3", "-o", str(out)]) == 2
    assert "derangement" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spread", ["nan", "inf", "-inf"])
def test_gen_non_finite_spread_exit_2(tmp_path, spread):
    out = tmp_path / "x.rrse"
    rc = main(["gen", "--n", "10", f"--spread={spread}", "--seed", "1", "-o", str(out)])
    assert rc == 2
    assert not out.exists()


def test_inject_missing_file(tmp_path):
    rc = main(["inject", str(tmp_path / "absent.rrse"), "--rho", "0.2",
               "-o", str(tmp_path / "x.rrse")])
    assert rc == 3


@pytest.mark.parametrize("case", ["eval_checkpoint_dir", "gen_output_dir", "manifest_not_json",
                                  "manifest_list", "manifest_file_not_string"])
def test_bad_path_or_manifest_exits_3_with_error(tmp_path, capsys, case):
    # a directory where a file goes, and manifests that are not a JSON object
    # naming a file, end in one `error:` line and exit 3, not a traceback
    data = _gen(tmp_path, "data.rrse", n=20)
    manifest = tmp_path / "m.json"
    manifest.write_text({"manifest_not_json": "{not json",
                         "manifest_list": '["file"]',
                         "manifest_file_not_string": '{"file": 3}'}.get(case, ""))
    capsys.readouterr()
    argv = {"eval_checkpoint_dir": ["eval", "--checkpoint", str(tmp_path), "--data", data],
            "gen_output_dir": ["gen", "--n", "10", "--seed", "1", "-o", str(tmp_path)]}.get(
        case, ["train", "--data", str(manifest), "--out-dir", str(tmp_path / "run")])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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
    for e in (1, 2):
        lines = open(os.path.join(out_dir, f"train.trace_epoch_{e}.csv")).read().splitlines()
        assert lines[0] == "epoch,pair_id,y,l_total,w,bucket"
        assert len(lines) == 61  # header + one row per pair
        assert lines[1].startswith(f"{e},0,")

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
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    code = ("import os\n"
            f"for v in {names!r}: os.environ.pop(v, None)\n"
            "from rrsitr.cli import main\n"
            "rc = main(['eval', '--checkpoint', 'absent.rrsp', '--data', 'absent.rrse',"
            " '--threads', '1'])\n"
            f"print(rc, *[os.environ[v] for v in {names!r}])\n")
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["3", "1", "1", "1"]


def test_train_and_eval_same_bytes_at_one_and_two_workers(tmp_path):
    # with the pool's work threshold forced to 0, --threads 2 splits every
    # pool-capable call into tasks even at this small shape (the Gram kernel,
    # two strips): heads, log records and eval report must keep --threads 1's
    # bytes
    world = _gen(tmp_path, "world.rrse", n=160, extra=("--dim", "40", "--d1", "10", "--d2", "8"))
    noised = str(tmp_path / "noised.rrse")
    assert main(["inject", world, "--rho", "0.4", "--seed", "2", "-o", noised]) == 0
    code = ("import sys\n"
            "from rrsitr import pool\n"
            "pool.PARALLEL_WORK = 0\n"
            "from rrsitr.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    outputs = {}
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        proc = _run_python(["-c", code, "train", "--data", noised, "--val", world, "--out-dir",
                            str(run), "--epochs", "2", "--batch", "40", "--threads", threads])
        assert proc.returncode == 0, proc.stderr
        proc = _run_python(["-c", code, "eval", "--checkpoint", str(run / "train.rrsp"),
                            "--data", world, "-o", str(run / "eval.json"), "--threads", threads])
        assert proc.returncode == 0, proc.stderr
        assert (json.load(open(run / "manifest.json"))["workers"]
                == min(int(threads), len(os.sched_getaffinity(0))))
        records = [{k: v for k, v in json.loads(line).items() if k != "wall_clock_sec"}
                   for line in open(run / "train.log.jsonl")]
        outputs[threads] = ((run / "train.rrsp").read_bytes(), records,
                            (run / "eval.json").read_bytes())
    assert len(outputs["1"][1]) == 2
    assert outputs["1"] == outputs["2"]


def test_threads_above_the_cores_is_capped_and_starts_no_thread(tmp_path):
    # the pool never outgrows the cores, so a huge --threads cannot ask the
    # system for that many threads; at this shape no call reaches the pool
    import threading

    data = _gen(tmp_path, n=20)
    running = threading.active_count()
    assert main(["train", "--data", data, "--out-dir", str(tmp_path / "run"), "--epochs", "1",
                 "--batch", "10", "--threads", "100000"]) == 0
    assert threading.active_count() == running
    manifest = json.load(open(tmp_path / "run" / "manifest.json"))
    assert manifest["workers"] == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("argv", [["-h"], ["gen", "-h"], ["inject", "-h"], ["train", "-h"],
                                  ["ablate", "-h"], ["eval", "-h"], [], ["trace"],
                                  ["train", "--data", "d", "extra"], ["eval", "--bogus"],
                                  ["-x", "train"], ["gen", "--n"]])
def test_main_parses_as_the_parser_of_every_command(argv, capsys, monkeypatch):
    # main adds only the chosen command's arguments; its help and usage errors
    # must be the bytes the parser of every command prints
    monkeypatch.setenv("COLUMNS", "80")
    printed = []
    for parse in (main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        printed.append((exc.value.code, *capsys.readouterr()))
    assert printed[0] == printed[1]
    assert printed[0][1 if argv[-1:] == ["-h"] else 2].startswith("usage: rrsitr")


def test_eval_help_says_its_threads_flag_changes_nothing(capsys, monkeypatch):
    # evaluate runs on the calling thread, so eval accepts --threads and ignores it
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["eval", "-h"])
    help_ = capsys.readouterr().out
    assert "changes nothing: eval runs on the calling thread at any count" in help_
    assert "worker threads for large shapes" not in help_


def test_manifest_records_blas_and_threads(tmp_path):
    data = _gen(tmp_path, n=20)
    out_dir = tmp_path / "run"
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    proc = _run_python(["-c", "import os, sys\n"
                        f"for v in {names!r}: os.environ.pop(v, None)\n"
                        "from rrsitr.cli import main\n"
                        "sys.exit(main(sys.argv[1:]))\n",
                        "train", "--data", data, "--out-dir", str(out_dir), "--epochs", "1",
                        "--batch", "10", "--threads", "1"])
    assert proc.returncode == 0, proc.stderr
    manifest = json.load(open(out_dir / "manifest.json"))
    assert manifest["threads"] == {v: "1" for v in names}
    assert manifest["workers"] == 1
    assert manifest["blas"]["name"] and manifest["blas"]["version"]
    assert manifest["cpu_count"] == os.cpu_count()


def test_parsing_every_command_loads_no_numpy():
    # main writes --threads' variables after parse_args: that caps BLAS only
    # if building the parser and parsing argv leave numpy unloaded
    argvs = [["gen", "--n", "10", "-o", "g.rrse"], ["inject", "g.rrse", "--rho", "0.2", "-o", "i"],
             ["train", "--data", "d.rrse", "--threads", "1"], ["ablate", "--data", "d", "--all"],
             ["eval", "--checkpoint", "c", "--data", "d"]]
    code = ("import sys\n"
            "from rrsitr.cli import build_parser\n"
            f"for argv in {argvs!r}: build_parser().parse_args(argv)\n"
            "print('numpy' in sys.modules)\n")
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "False"


@pytest.mark.parametrize("error,code", [("ConfigError", 2), ("FormatError", 3), ("DataError", 3),
                                        ("NumericError", 4), ("OSError", 3)])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error, code):
    from rrsitr import errors

    def fail(args):
        raise getattr(errors, error, OSError)("boom")

    monkeypatch.setattr(cli, "cmd_gen", fail)
    assert main(["gen", "--n", "10", "-o", "x.rrse"]) == code
    assert capsys.readouterr().err == "error: boom\n"


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


def test_trace_command(tmp_path):
    # the per-pair weight trace is train --trace-epochs: one CSV per traced epoch
    train_file = _gen(tmp_path, n=40)
    out_dir = str(tmp_path / "tr")
    rc = main(["train", "--data", train_file, "--epochs", "2", "--trace-epochs", "1,2",
               "--out-dir", out_dir, "--batch", "10",
               "--gamma1", "2", "--gamma2", "9", "--seed", "0"])
    assert rc == 0
    for e in (1, 2):
        path = os.path.join(out_dir, f"train.trace_epoch_{e}.csv")
        lines = open(path).read().splitlines()
        assert len(lines) == 41  # header + one row per pair
        assert lines[1].startswith(f"{e},0,")
    assert {"train.trace_epoch_1.csv", "train.trace_epoch_2.csv"} <= set(os.listdir(out_dir))


def test_trace_bad_epoch_list(tmp_path, capsys):
    train_file = _gen(tmp_path, n=40)
    out_dir = tmp_path / "tr"
    capsys.readouterr()
    rc = main(["train", "--data", train_file, "--trace-epochs", "1,b",
               "--out-dir", str(out_dir), "--seed", "0"])
    assert rc == 2
    assert "'b'" in capsys.readouterr().err
    assert not out_dir.exists()  # refused before training


def test_trace_is_not_a_command(capsys):
    # per-pair weight traces come from train --trace-epochs alone
    from argparse import _SubParsersAction

    sub = next(a for a in cli.build_parser()._actions if isinstance(a, _SubParsersAction))
    assert list(sub.choices) == ["gen", "inject", "train", "ablate", "eval"]
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--data", "d.rrse", "--epochs", "1,50"])
    assert exc.value.code == 2
    assert "argument command: invalid choice: 'trace'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,variant", [(["train", "--variant", "no_spl", "--epochs", "1"],
                                           "no_spl"),
                                          (["ablate", "--epochs", "1"], "full")])
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


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_hyper_defaults_come_from_hyper(monkeypatch, tmp_path, command):
    monkeypatch.delenv("RRSITR_SEED", raising=False)
    assert _built_hyper(monkeypatch, tmp_path, [command]) == Hyper(seed=0)


EVERY_HYPER_FLAG = ["--tau", "0.1", "--gamma1", "1.5", "--gamma2", "7", "--sigma", "0.4",
                    "--lambda1", "0.3", "--lambda2", "0.2", "--alpha", "0.6", "--lr", "0.002",
                    "--weight-decay", "0.1", "--warmup", "7", "--max-grad-norm", "9",
                    "--batch", "12", "--seed", "3", "--rtl-noisy-only", "--pace-epochs", "2",
                    "--spl-sum-over-all"]


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_every_hyper_flag_reaches_its_field(monkeypatch, tmp_path, command):
    got = _built_hyper(monkeypatch, tmp_path, [command, "--epochs", "4", *EVERY_HYPER_FLAG])
    want = Hyper(tau=0.1, gamma1=1.5, gamma2=7.0, sigma=0.4, lambda1=0.3, lambda2=0.2,
                 alpha=0.6, lr=0.002, weight_decay=0.1, warmup_steps=7, max_grad_norm=9.0,
                 epochs=4, batch_size=12, seed=3, rtl_noisy_only=True, pace_epochs=2,
                 spl_sum_over_all=True)
    for f in fields(Hyper):
        # every value differs from the default, so a flag that misses its field shows
        assert getattr(want, f.name) != getattr(Hyper(), f.name), f.name
        assert getattr(got, f.name) == getattr(want, f.name), f.name


FLOAT_HYPER_FIELDS = ["tau", "gamma1", "gamma2", "sigma", "lambda1", "lambda2", "alpha", "lr",
                      "weight_decay", "max_grad_norm"]


@pytest.mark.parametrize("field,value", [*((f, v) for f in FLOAT_HYPER_FIELDS
                                           for v in ("nan", "inf")),
                                         ("pace_epochs", "-1")])
def test_non_finite_or_negative_hyper_value_exits_2(tmp_path, capsys, field, value):
    # NaN compares false, so --max-grad-norm nan used to train with clipping off
    assert FLOAT_HYPER_FIELDS == [f.name for f in fields(Hyper) if f.type == "float"]
    out_dir = tmp_path / "run"
    rc = main(["train", "--data", _gen(tmp_path, n=40), "--epochs", "1", "--batch", "10",
               "--" + field.replace("_", "-"), value, "--out-dir", str(out_dir)])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not out_dir.exists()


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


def test_ablate_empty_report_cells_follow_the_header(tmp_path, monkeypatch):
    # a report column added to RetrievalReport widens the empty cells too
    from rrsitr.evaluation import RetrievalReport
    monkeypatch.setattr(RetrievalReport, "CSV_HEADER", RetrievalReport.CSV_HEADER + ",extra")
    train_file = _gen(tmp_path, n=40)
    out_dir = tmp_path / "ab"
    assert main(["ablate", "--data", train_file, "--out-dir", str(out_dir), "--epochs", "1",
                 "--batch", "10", "--gamma1", "2", "--gamma2", "9", "--seed", "4"]) == 0
    header, row = open(out_dir / "results.csv").read().splitlines()
    assert header.split(",")[-2:] == ["extra", "val_mr"]
    assert row.split(",") == ["full"] + [""] * (len(header.split(",")) - 1)


def test_ablate_all_refuses_a_variant(tmp_path, capsys):
    train_file = _gen(tmp_path, n=40)
    out_dir = tmp_path / "ab"
    rc = main(["ablate", "--data", train_file, "--all", "--variant", "no_rtl",
               "--out-dir", str(out_dir), "--epochs", "1", "--batch", "10", "--seed", "4"])
    assert rc == 2
    assert "--all runs every variant" in capsys.readouterr().err
    assert not out_dir.exists()  # refused before training


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


def _bad_held_set(tmp_path, case):
    """A held-out set evaluate refuses, and the exit code that refusal gives."""
    if case == "noisy":
        clean = _gen(tmp_path, name="clean.rrse", n=20, seed=2)
        out = str(tmp_path / "held.rrse")
        assert main(["inject", clean, "--rho", "0.5", "--seed", "1", "-o", out]) == 0
        return out, 3
    if case == "small":
        return _gen(tmp_path, name="held.rrse", n=9, seed=2), 2
    out = str(tmp_path / "held.rrse")            # dim 4 against the training set's 8
    assert main(["gen", "--n", "20", "--classes", "4", "--dim", "4", "--d1", "2", "--d2", "2",
                 "--seed", "2", "-o", out]) == 0
    return out, 2


@pytest.mark.parametrize("case", ["noisy", "small", "wrong_dim"])
@pytest.mark.parametrize("command,flag", [("train", "--val"), ("ablate", "--val"),
                                          ("ablate", "--test")])
def test_bad_held_out_set_fails_before_training(tmp_path, monkeypatch, capsys, case, command,
                                                flag):
    # the set is checked as evaluate would check it, before the manifest is
    # written and before any variant trains
    from rrsitr import trainer

    def refuse(*args, **kwargs):
        raise AssertionError("trainer.train was called")
    monkeypatch.setattr(trainer, "train", refuse)
    train_file = _gen(tmp_path, n=40)
    held, code = _bad_held_set(tmp_path, case)
    out_dir = tmp_path / "run"
    assert main([command, "--data", train_file, flag, held, "--out-dir", str(out_dir),
                 "--epochs", "1", "--batch", "10"]) == code
    assert f"{flag} set" in capsys.readouterr().err
    assert not out_dir.exists()


def test_manifest_records_noise_of_an_rrse_with_its_sidecar(tmp_path, monkeypatch):
    # gen -> inject -> train --data n.rrse: inject's n.rrse.json names n.rrse
    # and holds rho and the seed; a sidecar naming another file is not read
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "40", "--classes", "4", "--dim", "8", "--d1", "2", "--d2", "2",
                 "--seed", "1", "-o", "c.rrse"]) == 0
    assert main(["inject", "c.rrse", "--rho", "0.25", "--seed", "7", "-o", "n.rrse"]) == 0
    with open("n.rrse", "rb") as src, open("m.rrse", "wb") as dst:
        dst.write(src.read())
    with open("n.rrse.json") as src, open("m.rrse.json", "w") as dst:
        dst.write(src.read())
    noise = {}
    for data in ("n.rrse", "m.rrse"):
        assert main(["train", "--data", data, "--out-dir", data + ".run", "--epochs", "1",
                     "--batch", "10"]) == 0
        noise[data] = json.load(open(os.path.join(data + ".run", "manifest.json")))["dataset"]
    # the path is named from the run directory, as a sidecar names its file
    up = os.path.join("..", "")
    assert noise["n.rrse"] == {"path": up + "n.rrse", "noise": {"rho": 0.25, "seed": 7}}
    assert noise["m.rrse"] == {"path": up + "m.rrse", "noise": None}


@pytest.mark.parametrize("case", ["manifest_from_its_dir", "rrse_from_its_dir", "moved_dir"])
def test_sidecar_names_its_file_from_its_own_directory(tmp_path, monkeypatch, case):
    # gen and inject -o sub/y.rrse write sub/y.rrse.json naming "y.rrse", so the
    # data set and its noise are found from any directory, and after a move;
    # the run manifest names the data set from the run directory
    monkeypatch.chdir(tmp_path)
    os.mkdir("sub")
    assert main(["gen", "--n", "40", "--classes", "4", "--dim", "8", "--d1", "2", "--d2", "2",
                 "--seed", "1", "-o", "sub/c.rrse"]) == 0
    assert main(["inject", "sub/c.rrse.json", "--rho", "0.4", "--seed", "2",
                 "-o", "sub/y.rrse"]) == 0
    assert json.load(open("sub/y.rrse.json"))["file"] == "y.rrse"
    data = {"manifest_from_its_dir": "y.rrse.json", "rrse_from_its_dir": "y.rrse",
            "moved_dir": "moved/y.rrse.json"}[case]
    if case == "moved_dir":
        os.rename("sub", "moved")
    else:
        monkeypatch.chdir("sub")
    assert main(["train", "--data", data, "--out-dir", "run", "--epochs", "1",
                 "--batch", "10"]) == 0
    dataset = json.load(open(os.path.join("run", "manifest.json")))["dataset"]
    assert dataset == {"path": os.path.join("..", data), "noise": {"rho": 0.4, "seed": 2}}
    assert os.path.exists(os.path.join("run", dataset["path"]))


@pytest.mark.parametrize("given", ["sub/c.rrse", "sub/c.rrse.json"])
def test_inject_sidecar_keeps_source_and_generator(tmp_path, monkeypatch, given):
    # a noised set names the file it was made from, relative to its sidecar,
    # and keeps gen's parameters; an input without a manifest has no generator
    monkeypatch.chdir(tmp_path)
    os.mkdir("sub")
    assert main(["gen", "--n", "40", "--classes", "4", "--dim", "8", "--d1", "2", "--d2", "2",
                 "--seed", "1", "-o", "sub/c.rrse"]) == 0
    generator = json.load(open("sub/c.rrse.json"))["generator"]
    assert generator["seed"] == 1
    assert main(["inject", given, "--rho", "0.4", "--seed", "2", "-o", "sub/y.rrse"]) == 0
    assert json.load(open("sub/y.rrse.json")) == {
        "file": "y.rrse", "noise": {"rho": 0.4, "seed": 2}, "source": "c.rrse",
        "generator": generator}
    os.remove("sub/c.rrse.json")
    assert main(["inject", "sub/c.rrse", "--rho", "0.4", "--seed", "2", "-o", "b.rrse"]) == 0
    assert json.load(open("b.rrse.json")) == {
        "file": "b.rrse", "noise": {"rho": 0.4, "seed": 2}, "source": "sub/c.rrse"}


def test_python_m_rrsitr_runs_the_cli_before_numpy_loads():
    proc = _run_python(["-m", "rrsitr", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().startswith("usage: rrsitr")
    # BLAS is pinned to one thread whatever --threads says, which reaches the
    # thread variables only because numpy was not loaded first
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    code = ("import os, runpy, sys\n"
            f"for v in {names!r}: os.environ.pop(v, None)\n"
            "sys.argv = ['rrsitr', 'eval', '--checkpoint', 'absent.rrsp', '--data', 'absent.rrse',"
            " '--threads', '2']\n"
            "try:\n"
            "    runpy.run_module('rrsitr', run_name='__main__')\n"
            "except SystemExit as e:\n"
            f"    print(e.code, [os.environ.get(v) for v in {names!r}])\n")
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "3 ['1', '1', '1']"


class _FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_only_the_program_entry_tunes_the_allocator(tmp_path, monkeypatch):
    # main() with no argv is the rrsitr script or python -m rrsitr: it sets
    # glibc's mmap and trim thresholds (M_MMAP_THRESHOLD -3, M_TRIM_THRESHOLD
    # -1). A main([...]) call inside another program leaves its heap alone.
    import ctypes

    libc = _FakeLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    argv = ["gen", "--n", "10", "--classes", "2", "--dim", "4", "--d1", "1", "--d2", "1",
            "--seed", "1", "-o", str(tmp_path / "g.rrse")]
    assert main(argv) == 0
    assert libc.calls == []
    monkeypatch.setattr(sys, "argv", ["rrsitr", *argv])
    assert main() == 0
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())   # a libc without mallopt
    assert main() == 0


def test_allocator_is_tuned_before_numpy_loads():
    code = ("import ctypes, sys\n"
            "seen = []\n"
            "class Libc:\n"
            "    def mallopt(self, param, value):\n"
            "        seen.append((param, value, 'numpy' in sys.modules))\n"
            "ctypes.CDLL = lambda name: Libc()\n"
            "sys.argv = ['rrsitr', 'eval', '--checkpoint', 'absent.rrsp',"
            " '--data', 'absent.rrse']\n"
            "from rrsitr.cli import main\n"
            "print(main(), seen)\n")
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == f"3 [(-3, {32 << 20}, False), (-1, {64 << 20}, False)]"

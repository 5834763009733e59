import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rrsitr
from rrsitr.cli import main
from rrsitr.data import read_dataset


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


def test_trace_epoch_beyond_run(tmp_path):
    train_file = _gen(tmp_path, n=40)
    rc = main(["trace", "--data", train_file, "--epochs", "9", "--train-epochs", "3",
               "--out-dir", str(tmp_path / "tr"), "--batch", "10", "--seed", "0"])
    assert rc == 2


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


def test_cli_entry_point_subprocess(tmp_path):
    out = str(tmp_path / "s.rrse")
    # the child imports the same rrsitr as this process, installed or not
    src = os.path.dirname(os.path.dirname(rrsitr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "rrsitr.cli", "gen", "--n", "10", "--classes", "2",
         "--dim", "4", "--d1", "1", "--d2", "1", "--seed", "1", "-o", out],
        capture_output=True, text=True, env=env)
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

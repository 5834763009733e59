"""Command-line entry point: dataset generation, noise injection, training
(with per-pair weight traces for chosen epochs), ablations and evaluation as
reproducible runs.

train and ablate share one load -> manifest -> trainer.train path
(_train_runs). Hyperparameter defaults live in trainer.Hyper alone.

Exit codes: 0 success, 2 usage (argparse), each package error's exit_code
(errors.py), and 3 for an OSError such as a missing file.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields

from . import pool
from .errors import ConfigError, RrsitrError

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3       # glibc <malloc.h> mallopt params


def _thread_count(value: str) -> int:
    """--threads' type, a worker count of at least one."""
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return n


def _default_seed() -> int:
    """$RRSITR_SEED, or 0 when it is unset or empty."""
    env = os.environ.get("RRSITR_SEED")
    if not env:
        return 0
    if not env.strip().isdecimal():
        raise ConfigError(f"RRSITR_SEED must be a non-negative integer, got {env!r}")
    return int(env)


def _seed_arg(args) -> int:
    """gen's and inject's seed: --seed, else $RRSITR_SEED, else 0."""
    if args.seed is None:
        return _default_seed()
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _git_describe() -> str:
    """The commit of the checkout this package runs from, whatever the current
    directory."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _run_flags() -> argparse.ArgumentParser:
    """The flags of the training commands, as a parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--data", required=True, help="training .rrse file or manifest")
    p.add_argument("--val", help="clean validation set for checkpoint selection")
    p.add_argument("--variant", default="full")
    # dest = a Hyper field and no default: a flag not given leaves Hyper's default
    g = p.add_argument_group("hyperparameters", argument_default=argparse.SUPPRESS)
    g.add_argument("--tau", type=float, help="InfoNCE temperature")
    g.add_argument("--gamma1", type=float, help="clean/ambiguous loss threshold")
    g.add_argument("--gamma2", type=float, help="ambiguous/noisy loss threshold")
    g.add_argument("--sigma", type=float, help="triplet base margin")
    g.add_argument("--lambda1", type=float, help="ambiguous-loss weight")
    g.add_argument("--lambda2", type=float, help="triplet-loss weight")
    g.add_argument("--alpha", type=float, help="global/local fusion weight")
    g.add_argument("--lr", type=float,
                   help="learning rate (desk-scale default; 7e-6 suits encoder fine-tuning)")
    g.add_argument("--weight-decay", type=float)
    g.add_argument("--warmup", dest="warmup_steps", metavar="WARMUP", type=int,
                   help="linear warmup steps")
    g.add_argument("--max-grad-norm", type=float)
    g.add_argument("--epochs", type=int)
    g.add_argument("--batch", dest="batch_size", metavar="BATCH", type=int)
    g.add_argument("--seed", type=int, help="RNG seed (falls back to $RRSITR_SEED, then 0)")
    g.add_argument("--rtl-noisy-only", action="store_true",
                   help="restrict the triplet loss to noisy-bucket anchors")
    g.add_argument("--pace-epochs", type=int,
                   help=">0: grow gamma2 linearly over this many epochs")
    g.add_argument("--spl-sum-over-all", action="store_true",
                   help="L_S2 sums over all pairs below gamma2 instead of the ambiguous bucket")
    _add_threads_flag(p)
    return p


def _add_threads_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_thread_count, default=None,
                   help="worker threads for large shapes, at most and by default every core "
                        "this process may run on; every output has the same bits at any count, "
                        "and BLAS runs at one thread")


def _hyper_from_args(args) -> "Hyper":
    """Hyper from the hyperparameter flags given; Hyper's defaults fill the
    rest, except that seed falls back to $RRSITR_SEED first."""
    from .trainer import Hyper

    given = {f.name: getattr(args, f.name) for f in fields(Hyper) if f.name in args}
    if "seed" not in given:
        given["seed"] = _default_seed()
    return Hyper(**given)


def _blas() -> dict:
    """Name and version of the BLAS numpy was built with; "unknown" where numpy
    (before 1.25) cannot report its build configuration as a dict."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _write_run_manifest(out_dir, command, variant, hyper, data_path, outputs=None) -> None:
    """manifest.json of a run; it names its data set relative to out_dir, as a
    dataset manifest names its file."""
    from .data import dataset_manifest

    os.makedirs(out_dir, exist_ok=True)
    manifest = dataset_manifest(data_path)[1] or {}
    doc = {
        "command": command,
        "variant": variant,
        "hyper": dict(hyper.__dict__),
        "dataset": {"path": os.path.relpath(data_path, out_dir), "noise": manifest.get("noise")},
        "seed": hyper.seed,
        "git": _git_describe(),
        "outputs": outputs or {},
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in pool.BLAS_THREAD_VARS},
        "workers": pool.workers(),
        "cpu_count": os.cpu_count(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def _mean_pair_similarities(image_global, text_global):
    """Mean cosine of matched pairs and of unmatched pairs (i != j), in O(n*dim):
    the unmatched sum is (sum_i u_i) . (sum_j v_j) minus the matched one.
    The float32 global blocks are upcast, so the sums run in float64."""
    import numpy as np

    u = np.asarray(image_global, dtype=np.float64)
    v = np.asarray(text_global, dtype=np.float64)
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    n = u.shape[0]
    diag = np.einsum("ij,ij->i", u, v)
    matched = float(diag.mean())
    if n < 2:
        return matched, float("nan")  # no unmatched pairs
    off = float((u.sum(axis=0) @ v.sum(axis=0) - diag.sum()) / (n * (n - 1)))
    return matched, off


def cmd_gen(args) -> int:
    from .data import generate_synthetic, write_dataset, write_manifest

    seed = _seed_arg(args)
    ds = generate_synthetic(args.n, args.classes, args.dim, args.d1, args.d2,
                            args.spread, seed)
    write_dataset(ds, args.output)
    write_manifest(args.output + ".json", args.output, rho=0.0, seed=seed,
                   extra={"generator": {"n": args.n, "classes": args.classes,
                                        "dim": args.dim, "d1": args.d1, "d2": args.d2,
                                        "spread": args.spread, "seed": seed}})
    matched, off = _mean_pair_similarities(ds.image_global, ds.text_global)
    print(f"wrote {args.output}: n={ds.n_pairs} dim={ds.dim} d1={ds.d1} d2={ds.d2}")
    print(f"matched-pair mean global similarity {matched:.4f}, unmatched {off:.4f}")
    return 0


def cmd_inject(args) -> int:
    """Noise a data set. The sidecar names the input as its source and keeps
    the generator block of the input's own manifest, if it has one."""
    from .data import (NoiseSpec, dataset_manifest, inject_noise, read_dataset, write_dataset,
                       write_manifest)

    seed = _seed_arg(args)
    source, manifest = dataset_manifest(args.input)
    noised = inject_noise(read_dataset(source), NoiseSpec(rho=args.rho, seed=seed))
    write_dataset(noised, args.output)
    extra = {"generator": manifest["generator"]} if manifest and "generator" in manifest else None
    write_manifest(args.output + ".json", args.output, rho=args.rho, seed=seed, source=source,
                   extra=extra)
    n0 = int((noised.y == 0).sum())
    print(f"wrote {args.output}: {n0}/{noised.n_pairs} pairs shuffled (rho={args.rho})")
    return 0


def _train_runs(args, variants, trace_epochs=(), outputs=None):
    """The one training path of train and ablate. Before any training it
    builds Hyper, checks the trace epochs, loads the data sets, checks the
    --val and --test sets as evaluate would and writes the run manifest; then
    it trains the variants in turn and yields (variant, heads, log, report),
    report being the evaluation on ablate's --test set or None."""
    from .data import load_dataset_arg
    from .evaluation import check_test_set, evaluate
    from .trainer import train

    hyper = _hyper_from_args(args)
    for epoch in trace_epochs:
        if not 1 <= epoch <= hyper.epochs:
            raise ConfigError(f"epoch {epoch} was not reached (ran {hyper.epochs})")
    ds = load_dataset_arg(args.data)
    val = load_dataset_arg(args.val) if args.val else None
    test = load_dataset_arg(args.test) if getattr(args, "test", None) else None
    for flag, held in (("--val", val), ("--test", test)):
        if held is not None:
            check_test_set(held, ds.dim, name=f"{flag} set")
    _write_run_manifest(args.out_dir, args.command, variants[0] if len(variants) == 1 else None,
                        hyper, args.data, outputs)
    for variant in variants:
        heads, log = train(ds, hyper, val_dataset=val, variant=variant, trace_epochs=trace_epochs)
        yield variant, heads, log, (evaluate(heads, test, hyper) if test is not None else None)


def cmd_train(args) -> int:
    from .trainer import save_heads

    _, heads, log, _ = next(_train_runs(args, [args.variant], _parse_epoch_list(args.trace_epochs)))
    ckpt = os.path.join(args.out_dir, "train.rrsp")
    save_heads(heads, ckpt)
    log_path = os.path.join(args.out_dir, "train.log.jsonl")
    log.to_jsonl(log_path)
    for epoch, trace in sorted(log.traces.items()):
        trace.to_csv(os.path.join(args.out_dir, f"train.trace_epoch_{epoch}.csv"))
    print(f"wrote {ckpt} and {log_path}")
    if log.records:
        final = log.records[-1]
        print(f"final epoch: loss={final.loss_overall:.4f} "
              f"buckets clean/ambig/noisy = {final.n_clean}/{final.n_ambiguous}/{final.n_noisy}"
              + (f" val_mR={final.val_mr:.2f}" if final.val_mr is not None else ""))
    return 0


def cmd_ablate(args) -> int:
    from .evaluation import RetrievalReport
    from .trainer import VARIANTS, save_heads

    if args.all and args.variant != "full":
        raise ConfigError(f"--all runs every variant; it takes no --variant ({args.variant!r})")
    variants = list(VARIANTS) if args.all else [args.variant]
    rows = []
    for variant, heads, log, report in _train_runs(args, variants, outputs={"variants": variants}):
        save_heads(heads, os.path.join(args.out_dir, f"{variant}.rrsp"))
        log.to_jsonl(os.path.join(args.out_dir, f"{variant}.log.jsonl"))
        # the saved heads, and so the val mR recorded, are the best epoch's
        val_mr = log.records[log.best_epoch - 1].val_mr if log.best_epoch else None
        rows.append((variant, report, val_mr))
        if report is not None:
            print(f"{variant}: test mR={report.mr:.2f}")
        elif args.val:
            print(f"{variant}: val mR={float('nan') if val_mr is None else val_mr:.2f}")
        else:
            print(f"{variant}: done")

    results = os.path.join(args.out_dir, "results.csv")
    no_report = "," * RetrievalReport.CSV_HEADER.count(",")   # one empty cell per column
    with open(results, "w") as f:
        f.write("variant," + RetrievalReport.CSV_HEADER + ",val_mr\n")
        for variant, report, val_mr in rows:
            f.write(",".join((variant, report.to_csv_row() if report else no_report,
                              "" if val_mr is None else f"{val_mr:.4f}")) + "\n")
    print(f"wrote {results}")
    return 0


def cmd_eval(args) -> int:
    from .data import load_dataset_arg
    from .evaluation import evaluate
    from .trainer import Hyper, load_heads

    heads = load_heads(args.checkpoint)
    hyper = Hyper(alpha=args.alpha) if "alpha" in args else Hyper()
    report = evaluate(heads, load_dataset_arg(args.data), hyper)
    doc = json.dumps(report.to_dict(), indent=2)
    if args.output:
        with open(args.output, "w") as f:
            f.write(doc + "\n")
        print(f"wrote {args.output}")
    print(doc)
    return 0


def _parse_epoch_list(spec: str | None) -> list[int]:
    tokens = [tok.strip() for tok in (spec or "").split(",") if tok.strip()]
    for tok in tokens:
        if not tok.isdecimal():
            raise ConfigError(f"epoch list {spec!r}: {tok!r} is not a non-negative integer")
    return [int(tok) for tok in tokens]


def _gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--d1", type=int, default=8, help="local image features per pair")
    p.add_argument("--d2", type=int, default=8, help="local text features per pair")
    p.add_argument("--spread", type=float, default=1.0, help="intra-class noise scale")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)


def _inject_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help=".rrse file or dataset manifest")
    p.add_argument("--rho", type=float, required=True, help="noise rate in [0, 1]")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)


def _train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace-epochs",
                   help="comma-separated epochs, e.g. 1,50, whose per-pair weight traces "
                        "are written as train.trace_epoch_<e>.csv")
    p.add_argument("--out-dir", default="runs/train")


def _ablate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--test", help="clean test set for the results table")
    p.add_argument("--all", action="store_true", help="run every variant plus full")
    p.add_argument("--out-dir", default="runs/ablate")


def _eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True, help=".rrsp head parameters")
    p.add_argument("--data", required=True, help="clean test .rrse file or manifest")
    p.add_argument("-o", "--output", help="write the JSON report here")
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS,
                   help="global/local fusion weight, by default train's default. The "
                        "checkpoint does not record the alpha its heads were trained "
                        "with: pass that value")
    _add_threads_flag(p)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The rrsitr parser: every command with its arguments, or, given a
    command's name, that command alone. Building them all costs about a
    millisecond, which main, running one command, skips; the usage line names
    every command either way."""
    # name: (help, handler, adds its own arguments, takes the training flags first)
    commands = {
        "gen": ("generate a synthetic paired-embedding dataset", cmd_gen, _gen_flags, False),
        "inject": ("shuffle texts of a fraction of pairs", cmd_inject, _inject_flags, False),
        "train": ("train projection heads", cmd_train, _train_flags, True),
        "ablate": ("run objective-substitution variants", cmd_ablate, _ablate_flags, True),
        "eval": ("retrieval report for a checkpoint on a clean set", cmd_eval, _eval_flags,
                 False),
    }
    parser = argparse.ArgumentParser(
        prog="rrsitr", usage="%(prog)s [-h] {" + ",".join(commands) + "} ...",
        description="Noise-robust image-text retrieval experiments on paired embeddings")
    sub = parser.add_subparsers(dest="command", required=True, prog="rrsitr")
    for name, (help_, func, add_flags, trains) in commands.items():
        if command in commands and name != command:
            continue
        p = sub.add_parser(name, help=help_, parents=[_run_flags()] if trains else [])
        add_flags(p)
        p.set_defaults(func=func)
    return parser


def _keep_freed_heap() -> None:
    """Stop glibc from handing freed heap back to the OS after every step.

    Each training step frees buffers of a few MiB; under glibc's default
    thresholds they are mmapped or trimmed, so the next step faults the same
    pages back in. Set once, before numpy loads, and only where libc has
    mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):   # no libc to load, or not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    """Run one command. With no argv this is the program itself (the rrsitr
    script, python -m rrsitr), which alone tunes the process's allocator; a
    call with an argv list runs inside its caller's process and leaves the
    allocator as it is. --threads sizes the worker pool (rrsitr.pool) for
    this command alone."""
    if argv is None:
        _keep_freed_heap()
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # One BLAS thread sums each GEMM in one order; the worker pool, not BLAS,
    # uses the other cores. BLAS reads its thread count when numpy loads, so
    # once numpy is loaded the thread variables are left as they are for the
    # rest of the process and its children.
    if "numpy" not in sys.modules:
        for var in pool.BLAS_THREAD_VARS:
            os.environ[var] = "1"
    threads = getattr(args, "threads", None)
    previous = pool.set_workers(threads) if threads else None
    try:
        return args.func(args)
    except RrsitrError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:            # a missing file, a directory, no permission
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        if threads:
            pool.set_workers(previous)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: dataset generation, noise injection, training,
ablations, evaluation, and weight-trace export as reproducible runs.

train, trace and ablate share one load -> manifest -> trainer.train path
(_train_runs), and trace is train's trace-only alias. Hyperparameter defaults
live in trainer.Hyper alone.

Exit codes: 0 success, 2 usage/config, 3 data/format, 4 numeric divergence.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields


def _apply_threads_early(argv):
    """--threads must take effect before numpy loads its BLAS thread pool. Once
    numpy is loaded the cap cannot apply, so the thread variables are left as
    they are for the rest of the process and its children. So are they for a
    count that is not a positive integer, which parse_args then rejects."""
    if "numpy" in sys.modules:
        return
    for i, a in enumerate(argv):
        n = None
        if a == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif a.startswith("--threads="):
            n = a.split("=", 1)[1]
        if n is not None:
            try:
                n = _thread_count(n)
            except argparse.ArgumentTypeError:
                return
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(n)
            return


def _thread_count(value: str) -> int:
    """--threads' type. OpenBLAS reads a count of 0 or below as "all cores", so
    only a positive count is taken."""
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return n


def _default_seed() -> int:
    """$RRSITR_SEED, or 0 when it is unset or empty."""
    from .errors import ConfigError

    env = os.environ.get("RRSITR_SEED")
    if not env:
        return 0
    if not env.strip().isdecimal():
        raise ConfigError(f"RRSITR_SEED must be a non-negative integer, got {env!r}")
    return int(env)


def _seed_arg(args) -> int:
    """gen's and inject's seed: --seed, else $RRSITR_SEED, else 0."""
    from .errors import ConfigError

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


def _add_hyper_flags(p: argparse.ArgumentParser, with_epochs: bool = True) -> None:
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
    if with_epochs:
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


def _add_threads_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_thread_count, default=None,
                   help="BLAS thread cap (1 for bitwise-reproducible runs); it takes effect "
                        "only if this process has not loaded numpy yet")


def _hyper_from_args(args) -> "Hyper":
    """Hyper from the hyperparameter flags given; Hyper's defaults fill the
    rest, except that seed falls back to $RRSITR_SEED first."""
    from .trainer import Hyper

    given = {f.name: getattr(args, f.name) for f in fields(Hyper) if f.name in args}
    if "seed" not in given:
        given["seed"] = _default_seed()
    return Hyper(**given)


def _write_run_manifest(out_dir, command, variant, hyper, data_path, outputs=None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    noise = None
    if data_path.endswith(".json"):
        with open(data_path) as f:
            noise = json.load(f).get("noise")
    doc = {
        "command": command,
        "variant": variant,
        "hyper": dict(hyper.__dict__),
        "dataset": {"path": data_path, "noise": noise},
        "seed": hyper.seed,
        "git": _git_describe(),
        "outputs": outputs or {},
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
                                        "spread": args.spread}})
    matched, off = _mean_pair_similarities(ds.image_global, ds.text_global)
    print(f"wrote {args.output}: n={ds.n_pairs} dim={ds.dim} d1={ds.d1} d2={ds.d2}")
    print(f"matched-pair mean global similarity {matched:.4f}, unmatched {off:.4f}")
    return 0


def cmd_inject(args) -> int:
    from .data import NoiseSpec, inject_noise, load_dataset_arg, write_dataset, write_manifest

    seed = _seed_arg(args)
    ds = load_dataset_arg(args.input)
    noised = inject_noise(ds, NoiseSpec(rho=args.rho, seed=seed))
    write_dataset(noised, args.output)
    write_manifest(args.output + ".json", args.output, rho=args.rho, seed=seed)
    n0 = int((noised.y == 0).sum())
    print(f"wrote {args.output}: {n0}/{noised.n_pairs} pairs shuffled (rho={args.rho})")
    return 0


def _train_runs(args, variants, trace_epochs=(), outputs=None):
    """The one training path of train, trace and ablate. Before any training it
    builds Hyper, checks the trace epochs, loads the data sets and writes the run
    manifest; then it trains the variants in turn and yields (variant, heads,
    log, report), report being the evaluation on ablate's --test set or None."""
    from .data import load_dataset_arg
    from .errors import ConfigError
    from .evaluation import evaluate
    from .trainer import train

    hyper = _hyper_from_args(args)
    for epoch in trace_epochs:
        if not 1 <= epoch <= hyper.epochs:
            raise ConfigError(f"epoch {epoch} was not reached (ran {hyper.epochs})")
    ds = load_dataset_arg(args.data)
    val = load_dataset_arg(args.val) if args.val else None
    test = load_dataset_arg(args.test) if getattr(args, "test", None) else None
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


def cmd_trace(args) -> int:
    """train's trace-only alias: --epochs LIST and --train-epochs N are train's
    --trace-epochs and --epochs, and only the trace CSVs are written."""
    trace_epochs = _parse_epoch_list(args.trace_epochs)
    if not trace_epochs:
        print("trace: --epochs must name at least one epoch, e.g. --epochs 1,50",
              file=sys.stderr)
        return 2
    args.epochs = getattr(args, "epochs", max(trace_epochs))
    log = next(_train_runs(args, [args.variant], trace_epochs))[2]
    for epoch in trace_epochs:
        path = os.path.join(args.out_dir, f"trace_epoch_{epoch}.csv")
        log.traces[epoch].to_csv(path)
        print(f"wrote {path}")
    return 0


def cmd_ablate(args) -> int:
    from .evaluation import RetrievalReport
    from .trainer import VARIANTS, save_heads

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
    with open(results, "w") as f:
        f.write("variant," + RetrievalReport.CSV_HEADER + ",val_mr\n")
        for variant, report, val_mr in rows:
            f.write(",".join((variant, report.to_csv_row() if report else ",,,,,,",
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
    from .errors import ConfigError

    tokens = [tok.strip() for tok in (spec or "").split(",") if tok.strip()]
    for tok in tokens:
        if not tok.isdecimal():
            raise ConfigError(f"epoch list {spec!r}: {tok!r} is not a non-negative integer")
    return [int(tok) for tok in tokens]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrsitr",
        description="Noise-robust image-text retrieval experiments on paired embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic paired-embedding dataset")
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--d1", type=int, default=8, help="local image features per pair")
    p.add_argument("--d2", type=int, default=8, help="local text features per pair")
    p.add_argument("--spread", type=float, default=1.0, help="intra-class noise scale")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("inject", help="shuffle texts of a fraction of pairs")
    p.add_argument("input", help=".rrse file or dataset manifest")
    p.add_argument("--rho", type=float, required=True, help="noise rate in [0, 1]")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("train", help="train projection heads")
    p.add_argument("--data", required=True, help="training .rrse file or manifest")
    p.add_argument("--val", help="clean validation set for checkpoint selection")
    p.add_argument("--variant", default="full")
    p.add_argument("--trace-epochs", help="comma-separated epochs to dump weight traces for")
    p.add_argument("--out-dir", default="runs/train")
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="run objective-substitution variants")
    p.add_argument("--data", required=True)
    p.add_argument("--val", help="clean validation set")
    p.add_argument("--test", help="clean test set for the results table")
    p.add_argument("--variant", default="full")
    p.add_argument("--all", action="store_true", help="run every variant plus full")
    p.add_argument("--out-dir", default="runs/ablate")
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("eval", help="retrieval report for a checkpoint on a clean set")
    p.add_argument("--checkpoint", required=True, help=".rrsp head parameters")
    p.add_argument("--data", required=True, help="clean test .rrse file or manifest")
    p.add_argument("-o", "--output", help="write the JSON report here")
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS,
                   help="global/local fusion weight, by default train's default. The "
                        "checkpoint does not record the alpha its heads were trained "
                        "with: pass that value")
    _add_threads_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace", help="train's trace-only alias: export per-pair weight "
                                     "traces for chosen epochs")
    p.add_argument("--data", required=True)
    p.add_argument("--val")
    p.add_argument("--variant", default="full")
    p.add_argument("--epochs", dest="trace_epochs", metavar="EPOCHS", required=True,
                   help="comma-separated epoch list, e.g. 1,50 (train's --trace-epochs)")
    p.add_argument("--train-epochs", dest="epochs", metavar="TRAIN_EPOCHS", type=int,
                   default=argparse.SUPPRESS,
                   help="training length (default: the largest traced epoch)")
    p.add_argument("--out-dir", default="runs/trace")
    _add_hyper_flags(p, with_epochs=False)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_threads_early(argv)
    args = build_parser().parse_args(argv)

    from .errors import ConfigError, DataError, FormatError, NumericError
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FormatError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

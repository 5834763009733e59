"""Command-line entry point: dataset generation, noise injection, training,
ablations, evaluation, and weight-trace export as reproducible runs.

Exit codes: 0 success, 2 usage/config, 3 data/format, 4 numeric divergence.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def _apply_threads_early(argv):
    """--threads must take effect before numpy loads its BLAS thread pool."""
    for i, a in enumerate(argv):
        n = None
        if a == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif a.startswith("--threads="):
            n = a.split("=", 1)[1]
        if n is not None:
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(n)
            return


def _default_seed() -> int:
    env = os.environ.get("RRSITR_SEED")
    return int(env) if env else 0


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _add_hyper_flags(p: argparse.ArgumentParser, with_epochs: bool = True) -> None:
    g = p.add_argument_group("hyperparameters")
    g.add_argument("--tau", type=float, default=0.07, help="InfoNCE temperature")
    g.add_argument("--gamma1", type=float, default=5.0, help="clean/ambiguous loss threshold")
    g.add_argument("--gamma2", type=float, default=18.0, help="ambiguous/noisy loss threshold")
    g.add_argument("--sigma", type=float, default=0.6, help="triplet base margin")
    g.add_argument("--lambda1", type=float, default=0.8, help="ambiguous-loss weight")
    g.add_argument("--lambda2", type=float, default=0.9, help="triplet-loss weight")
    g.add_argument("--alpha", type=float, default=0.9, help="global/local fusion weight")
    g.add_argument("--lr", type=float, default=1e-3,
                   help="learning rate (desk-scale default; 7e-6 suits encoder fine-tuning)")
    g.add_argument("--weight-decay", type=float, default=0.7)
    g.add_argument("--warmup", type=int, default=200, help="linear warmup steps")
    g.add_argument("--max-grad-norm", type=float, default=50.0)
    if with_epochs:
        g.add_argument("--epochs", type=int, default=50)
    g.add_argument("--batch", type=int, default=100)
    g.add_argument("--seed", type=int, default=None,
                   help="RNG seed (falls back to $RRSITR_SEED, then 0)")
    g.add_argument("--rtl-noisy-only", action="store_true",
                   help="restrict the triplet loss to noisy-bucket anchors")
    g.add_argument("--pace-epochs", type=int, default=0,
                   help=">0: grow gamma2 linearly over this many epochs")
    g.add_argument("--spl-sum-over-all", action="store_true",
                   help="L_S2 sums over all pairs below gamma2 instead of the ambiguous bucket")
    _add_threads_flag(p)


def _add_threads_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS thread cap (1 for bitwise-reproducible runs)")


def _hyper_from_args(args, epochs_override=None) -> "Hyper":
    from .trainer import Hyper
    epochs = epochs_override if epochs_override is not None else args.epochs
    return Hyper(
        tau=args.tau, gamma1=args.gamma1, gamma2=args.gamma2, sigma=args.sigma,
        lambda1=args.lambda1, lambda2=args.lambda2, alpha=args.alpha, lr=args.lr,
        weight_decay=args.weight_decay, warmup_steps=args.warmup,
        max_grad_norm=args.max_grad_norm, epochs=epochs, batch_size=args.batch,
        seed=args.seed if args.seed is not None else _default_seed(),
        rtl_noisy_only=args.rtl_noisy_only, pace_epochs=args.pace_epochs,
        spl_sum_over_all=args.spl_sum_over_all,
    )


def _write_run_manifest(out_dir: str, command: str, args, hyper, data_path, extra=None) -> str:
    os.makedirs(out_dir, exist_ok=True)
    noise = None
    if data_path and data_path.endswith(".json"):
        with open(data_path) as f:
            noise = json.load(f).get("noise")
    doc = {
        "command": command,
        "hyper": dict(hyper.__dict__) if hyper is not None else None,
        "dataset": {"path": data_path, "noise": noise},
        "seed": hyper.seed if hyper is not None else getattr(args, "seed", None),
        "git": _git_describe(),
        "outputs": extra or {},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return path


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

    seed = args.seed if args.seed is not None else _default_seed()
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

    seed = args.seed if args.seed is not None else _default_seed()
    ds = load_dataset_arg(args.input)
    noised = inject_noise(ds, NoiseSpec(rho=args.rho, seed=seed))
    write_dataset(noised, args.output)
    write_manifest(args.output + ".json", args.output, rho=args.rho, seed=seed)
    n0 = int((noised.y == 0).sum())
    print(f"wrote {args.output}: {n0}/{noised.n_pairs} pairs shuffled (rho={args.rho})")
    return 0


def _train_common(args, variant: str, trace_epochs=(), epochs_override=None):
    from .data import load_dataset_arg
    from .errors import ConfigError
    from .trainer import train

    hyper = _hyper_from_args(args, epochs_override)
    for epoch in trace_epochs:
        if not 1 <= epoch <= hyper.epochs:
            raise ConfigError(f"epoch {epoch} was not reached (ran {hyper.epochs})")
    ds = load_dataset_arg(args.data)
    val = load_dataset_arg(args.val) if args.val else None
    _write_run_manifest(args.out_dir, variant if variant != "full" else "train",
                        args, hyper, args.data)
    heads, log = train(ds, hyper, val_dataset=val, variant=variant,
                       trace_epochs=trace_epochs)
    return heads, log, hyper


def _save_run_outputs(args, heads, log, tag: str) -> None:
    from .trainer import save_heads

    ckpt = os.path.join(args.out_dir, f"{tag}.rrsp")
    save_heads(heads, ckpt)
    log_path = os.path.join(args.out_dir, f"{tag}.log.jsonl")
    log.to_jsonl(log_path)
    for epoch, trace in sorted(log.traces.items()):
        trace.to_csv(os.path.join(args.out_dir, f"{tag}.trace_epoch_{epoch}.csv"))
    print(f"wrote {ckpt} and {log_path}")


def cmd_train(args) -> int:
    trace_epochs = _parse_epoch_list(args.trace_epochs)
    heads, log, hyper = _train_common(args, args.variant, trace_epochs)
    _save_run_outputs(args, heads, log, "train")
    if log.records:
        final = log.records[-1]
        print(f"final epoch: loss={final.loss_overall:.4f} "
              f"buckets clean/ambig/noisy = {final.n_clean}/{final.n_ambiguous}/{final.n_noisy}"
              + (f" val_mR={final.val_mr:.2f}" if final.val_mr is not None else ""))
    return 0


def cmd_ablate(args) -> int:
    from .data import load_dataset_arg
    from .evaluation import RetrievalReport, evaluate
    from .trainer import save_heads, train

    hyper = _hyper_from_args(args)
    ds = load_dataset_arg(args.data)
    val = load_dataset_arg(args.val) if args.val else None
    test = load_dataset_arg(args.test) if args.test else None
    variants = (["full", "no_local", "no_spl", "no_rtl", "none_of_three",
                 "spl_hard_to_easy", "spl_random_weights", "spl_no_ambiguous",
                 "fixed_margin_rtl"] if args.all else [args.variant])
    _write_run_manifest(args.out_dir, "ablate", args, hyper, args.data,
                        extra={"variants": variants})

    rows = []
    for variant in variants:
        heads, log = train(ds, hyper, val_dataset=val, variant=variant)
        save_heads(heads, os.path.join(args.out_dir, f"{variant}.rrsp"))
        log.to_jsonl(os.path.join(args.out_dir, f"{variant}.log.jsonl"))
        if test is not None:
            report = evaluate(heads, test, hyper)
            rows.append((variant, report))
            print(f"{variant}: test mR={report.mr:.2f}")
        else:
            mr = log.records[-1].val_mr if (log.records and log.records[-1].val_mr is not None) else float("nan")
            rows.append((variant, None))
            print(f"{variant}: val mR={mr:.2f}" if val else f"{variant}: done")

    results = os.path.join(args.out_dir, "results.csv")
    with open(results, "w") as f:
        f.write("variant," + RetrievalReport.CSV_HEADER + "\n")
        for variant, report in rows:
            f.write(variant + "," + (report.to_csv_row() if report else ",,,,,,") + "\n")
    print(f"wrote {results}")
    return 0


def cmd_eval(args) -> int:
    from .data import load_dataset_arg
    from .evaluation import evaluate
    from .trainer import Hyper, load_heads

    heads = load_heads(args.checkpoint)
    report = evaluate(heads, load_dataset_arg(args.data), Hyper(alpha=args.alpha))
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


def cmd_trace(args) -> int:
    epochs = _parse_epoch_list(args.epochs)
    if not epochs:
        print("trace: --epochs must name at least one epoch, e.g. --epochs 1,50",
              file=sys.stderr)
        return 2
    train_epochs = args.train_epochs if args.train_epochs is not None else max(epochs)
    heads, log, hyper = _train_common(args, args.variant, trace_epochs=epochs,
                                      epochs_override=train_epochs)
    for epoch in epochs:
        path = os.path.join(args.out_dir, f"trace_epoch_{epoch}.csv")
        log.traces[epoch].to_csv(path)
        print(f"wrote {path}")
    return 0


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
    p.add_argument("--alpha", type=float, default=0.9, help="global/local fusion weight")
    _add_threads_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace", help="export per-pair weight traces for chosen epochs")
    p.add_argument("--data", required=True)
    p.add_argument("--val")
    p.add_argument("--variant", default="full")
    p.add_argument("--epochs", required=True, help="comma-separated epoch list, e.g. 1,50")
    p.add_argument("--train-epochs", type=int, default=None,
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

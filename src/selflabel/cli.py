"""Command-line interface.

Subcommands: generate, pretrain, cluster, train, fuse, score, metrics,
pipeline, report. Exit codes: 0 success, 2 configuration error, 3 data
error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import clustering, ensemble, pipeline, scoring, synthdata
from ._textio import read_rows
from .configio import build_pipeline_config, build_synth_config, parse_kv_file
from .encoder import (
    train_classifier,
    train_contrastive,
    write_checkpoint,
    write_train_log,
)
from .errors import ConfigError, SelfLabelError
from .metrics import DcfParams, eer, min_dcf, nmi
from .scoring import Cohort, as_norm, cosine_score, fuse_scores


def _load_mapping(args) -> dict:
    return parse_kv_file(args.config) if args.config else {}


def _stage_settings(args) -> pipeline.PipelineConfig:
    """The settings ``selflabel pipeline`` would run with under the same
    config file. A stage command writes single files, so the run directory
    in them is not used."""
    return build_pipeline_config(_load_mapping(args), output_dir=".")


def _read_corpus_features(corpus_dir, modality):
    corpus = synthdata.read_corpus(corpus_dir)
    return corpus, corpus.features(modality).astype(np.float64)


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    config = build_synth_config(_load_mapping(args), seed_override=args.seed)
    corpus = synthdata.generate_corpus(config)
    synthdata.write_corpus(corpus, args.out)
    print(f"wrote corpus with {len(corpus)} samples to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    settings = _stage_settings(args)
    config = settings.contrastive
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    corpus, features = _read_corpus_features(args.corpus, args.modality)
    aug = (corpus.config or settings.synth).augmentation_noise_range
    params, log = train_contrastive(features, config, aug)
    write_checkpoint(args.out, params)
    if args.log_out:
        write_train_log(args.log_out, log)
    print(f"wrote encoder to {args.out} (final mean loss {log[-1][1]:.4f})" if log
          else f"wrote untrained encoder to {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    sample_ids, _, _ = synthdata.read_meta(args.meta)
    x = synthdata.read_embeddings(args.embeddings).astype(np.float64)
    if x.shape[0] != len(sample_ids):
        raise ConfigError("embedding row count does not match meta.tsv")
    choices = [args.k is not None, args.k_grid is not None, args.from_curve is not None]
    if sum(choices) != 1:
        raise ConfigError("give exactly one of --k, --k-grid or --from-curve")
    if args.from_curve is not None:
        curve = clustering.read_wss_curve(args.from_curve)
        k, _ = clustering.select_k_elbow(curve)
        print(f"elbow selected K={k} from stored curve {args.from_curve}")
    elif args.k_grid is not None:
        grid = clustering.elbow_grid(args.k_grid.split(","), "--k-grid")
        curve = clustering.sweep_k(
            x, grid, restarts=args.restarts, seed=args.seed,
            max_iters=args.max_iters, workers=args.workers,
        )
        if args.curve_out:
            clustering.write_wss_curve(args.curve_out, curve)
        # print the curve so a human can override the pick with --k
        for kk, w in zip(curve.ks, curve.wss):
            print(f"K={int(kk):>6d}  W={float(w):.6g}")
        k, _ = clustering.select_k_elbow(curve)
        print(f"elbow selected K={k} from grid {list(grid)}")
    else:
        k = args.k
    _, assignment, w = clustering.kmeans(
        x, k, restarts=args.restarts, max_iters=args.max_iters,
        seed=args.seed, workers=args.workers,
    )
    clustering.write_assignment(args.out, sample_ids, assignment)
    print(f"wrote assignment (K={k}, W={w:.6g}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    settings = _stage_settings(args)
    config = settings.classifier
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    corpus, features = _read_corpus_features(args.corpus, args.modality)
    ids, assignment = clustering.read_assignment(args.labels, k=args.num_classes)
    if ids != corpus.sample_ids:
        raise ConfigError("label file does not cover the corpus sample ids in order")
    params, head, log = train_classifier(
        features, assignment.labels, assignment.k, config,
        augmentation_range=settings.classifier_augmentation,
        augmentation_prob=settings.classifier_augmentation_prob,
    )
    write_checkpoint(args.out, params, head)
    if args.log_out:
        write_train_log(args.log_out, log)
    if log:
        print(f"wrote classifier to {args.out} (final accuracy {log[-1][2]:.4f})")
    else:
        print(f"wrote untrained classifier to {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    sample_ids, _, _ = synthdata.read_meta(args.meta)
    za = synthdata.read_embeddings(args.audio_emb).astype(np.float64)
    zv = synthdata.read_embeddings(args.visual_emb).astype(np.float64)
    if za.shape[0] != len(sample_ids) or zv.shape[0] != len(sample_ids):
        raise ConfigError("embedding row counts do not match meta.tsv")
    fused_set = ensemble.fuse_pseudo_labels(
        za, zv, args.k, restarts=args.restarts, max_iters=args.max_iters,
        seed=args.seed, workers=args.workers,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    breakdown = ensemble.write_fusion(out_dir, sample_ids, fused_set)
    print(f"wrote fused assignments to {out_dir} ({breakdown})")
    return 0


def _cmd_score(args) -> int:
    trials = scoring.read_trials(args.trials)
    if args.fuse:
        if not args.weights:
            raise ConfigError("--weights is required with --fuse")
        weights = [float(w) for w in args.weights.split(",")]
        sets = [scoring.read_scores(p, trials) for p in args.fuse]
        result = fuse_scores(sets, weights)
    else:
        if not args.embeddings or not args.meta:
            raise ConfigError("--embeddings and --meta are required unless fusing")
        sample_ids, _, _ = synthdata.read_meta(args.meta)
        z = synthdata.read_embeddings(args.embeddings).astype(np.float64)
        if z.shape[0] != len(sample_ids):
            raise ConfigError("embedding row count does not match meta.tsv")
        by_id = {sid: z[i] for i, sid in enumerate(sample_ids)}
        result = cosine_score(trials, by_id)
        if args.cohort:
            cohort_ids = [cid for cid, in read_rows(args.cohort, "cohort", (str,))]
            missing = [cid for cid in cohort_ids if cid not in by_id]
            if missing:
                raise ConfigError(f"cohort ids not present in embeddings: {missing[:3]}")
            cohort = Cohort(np.stack([by_id[cid] for cid in cohort_ids]))
            top_n = args.top_n if args.top_n is not None else cohort.size
            result = as_norm(result, by_id, cohort, top_n)
    scoring.write_scores(args.out, result)
    print(f"wrote {len(result)} scores to {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    _, _, identity_gt = synthdata.read_meta(args.meta)
    report = {"nmi_audio": None, "nmi_visual": None, "nmi_fused": None,
              "eer": None, "min_dcf": None, "threshold": None}
    for name, path in (("nmi_audio", args.audio), ("nmi_visual", args.visual),
                       ("nmi_fused", args.fused)):
        if path:
            _, assignment = clustering.read_assignment(path)
            if len(assignment) != identity_gt.size:
                raise ConfigError(f"{path} does not match meta.tsv length")
            report[name] = nmi(assignment.labels, identity_gt)
    if args.scores:
        if not args.trials:
            raise ConfigError("--trials is required with --scores")
        trials = scoring.read_trials(args.trials)
        score_set = scoring.read_scores(args.scores, trials)
        report["eer"], _ = eer(score_set)
        dcf = DcfParams(p_target=args.p_target, c_miss=args.c_miss, c_fa=args.c_fa)
        report["min_dcf"], report["threshold"] = min_dcf(score_set, dcf)
    _emit(report, args.out)
    return 0


def _cmd_pipeline(args) -> int:
    config = build_pipeline_config(_load_mapping(args), args.out, seed_override=args.seed)
    pipeline.run_pipeline(config)
    return 0


def _cmd_report(args) -> int:
    config = build_pipeline_config(_load_mapping(args), args.run, seed_override=args.seed)
    report = pipeline.run_pipeline(config)  # resumes over complete artifacts
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, config=True, seed=True):
    if config:
        sub.add_argument("--config", help="key = value config file")
    if seed:
        sub.add_argument("--seed", type=int, default=None, help="seed override")


def _add_cluster_flags(sub):
    defaults = clustering.ClusterSettings
    sub.add_argument("--restarts", type=int, default=defaults.restarts)
    sub.add_argument("--max-iters", type=int, default=defaults.max_iters)
    sub.add_argument("--workers", type=int, default=defaults.workers)
    sub.add_argument("--seed", type=int, default=0, help="k-means seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selflabel",
        description="Iterative multi-modal pseudo-label bootstrapping pipeline",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic corpus directory")
    _add_common(p)
    p.add_argument("--out", required=True, help="corpus output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("pretrain", help="contrastive pretraining of one modality")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--modality", choices=("audio", "visual"), default="audio")
    p.add_argument("--out", required=True, help="encoder checkpoint path")
    p.add_argument("--log-out", help="optional training log TSV")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("cluster", help="k-means over an embedding file")
    _add_common(p, config=False, seed=False)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--meta", required=True, help="meta.tsv supplying sample ids")
    p.add_argument("--k", type=int)
    p.add_argument("--k-grid", help="comma list; the elbow picks K")
    p.add_argument("--from-curve", help="run the elbow on a stored WSS curve")
    p.add_argument("--curve-out", help="write the WSS curve here")
    _add_cluster_flags(p)
    p.add_argument("--out", required=True, help="assignment TSV path")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("train", help="classifier training on pseudo-labels")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--modality", choices=("audio", "visual"), required=True)
    p.add_argument("--labels", required=True, help="assignment TSV of pseudo-labels")
    p.add_argument("--num-classes", type=int, default=None,
                   help="label-space size (default: max label + 1)")
    p.add_argument("--out", required=True)
    p.add_argument("--log-out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("fuse", help="cluster two modalities and fuse pseudo-labels")
    _add_common(p, config=False, seed=False)
    p.add_argument("--audio-emb", required=True)
    p.add_argument("--visual-emb", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_cluster_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("score", help="cosine scores for a trial list; optional AS-Norm or fusion")
    _add_common(p, config=False, seed=False)
    p.add_argument("--trials", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--meta")
    p.add_argument("--cohort", help="file of cohort sample ids enables AS-Norm")
    p.add_argument("--top-n", type=int, default=None)
    p.add_argument("--fuse", nargs="+", help="score files to fuse instead of scoring")
    p.add_argument("--weights", help="comma list of fusion weights")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("metrics", help="clustering/verification metrics report")
    _add_common(p, config=False, seed=False)
    p.add_argument("--meta", required=True)
    p.add_argument("--audio", help="audio assignment TSV")
    p.add_argument("--visual", help="visual assignment TSV")
    p.add_argument("--fused", help="fused assignment TSV")
    p.add_argument("--trials")
    p.add_argument("--scores")
    p.add_argument("--p-target", type=float, default=DcfParams.p_target)
    p.add_argument("--c-miss", type=float, default=DcfParams.c_miss)
    p.add_argument("--c-fa", type=float, default=DcfParams.c_fa)
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("pipeline", help="run (or resume) the full pipeline")
    _add_common(p)
    p.add_argument("--out", required=True, help="run output directory")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("report", help="re-aggregate the final report of a finished run")
    _add_common(p)
    p.add_argument("--run", required=True, help="pipeline output directory")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except SelfLabelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

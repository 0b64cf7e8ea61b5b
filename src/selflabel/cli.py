"""Command-line interface.

Subcommands: generate, pretrain, cluster, train, fuse, score, metrics,
pipeline, report. Exit codes: 0 success, 2 configuration error, 3 data
error (a file that disagrees with ``meta.tsv`` included), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import clustering, ensemble, pipeline, scoring, synthdata
from ._textio import json_text, read_columns, write_json
from .configio import build_pipeline_config, parse_kv_file
from .encoder import (
    train_classifier,
    train_contrastive,
    write_checkpoint,
    write_train_log,
)
from .errors import ConfigError, SelfLabelError
from .metrics import nmi, verification_metrics
from .scoring import Cohort, as_norm, cosine_score, fuse_scores


def _load_mapping(args) -> dict:
    return parse_kv_file(args.config) if args.config else {}


def _stage_settings(args) -> pipeline.PipelineConfig:
    """The settings ``selflabel pipeline`` would run with under the same
    config file. A stage command writes single files, so the run directory
    in them is not used."""
    return build_pipeline_config(_load_mapping(args), output_dir=".")


def _emit(report: dict, out_path) -> None:
    if out_path:
        write_json(out_path, report)
    print(json_text(report), end="")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    config = _stage_settings(args).synth
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    corpus = synthdata.generate_corpus(config)
    synthdata.write_corpus(corpus, args.out)
    print(f"wrote corpus with {len(corpus)} samples to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    config = _stage_settings(args).contrastive
    features = synthdata.read_corpus(args.corpus).features(args.modality)
    params, log = train_contrastive(features, config, args.seed)
    write_checkpoint(args.out, params)
    if args.log_out:
        write_train_log(args.log_out, log)
    print(f"wrote encoder to {args.out} (final mean loss {log[-1][1]:.4f})" if log
          else f"wrote untrained encoder to {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    choices = [args.k is not None, args.k_grid is not None, args.from_curve is not None]
    if sum(choices) != 1:
        raise ConfigError("give exactly one of --k, --k-grid or --from-curve")
    if args.curve_out is not None and args.k_grid is None:
        raise ConfigError("--curve-out is not read without --k-grid")
    restarts = _stage_settings(args).cluster.restarts
    sample_ids, _, _ = synthdata.read_meta(args.meta)
    x = synthdata.read_embeddings(args.embeddings, len(sample_ids))
    if args.from_curve is not None:
        curve = clustering.read_wss_curve(args.from_curve)
        k, _ = clustering.select_k_elbow(curve)
        print(f"elbow selected K={k} from stored curve {args.from_curve}")
    elif args.k_grid is not None:
        grid = clustering.elbow_grid(args.k_grid.split(","), "--k-grid")
        curve = clustering.sweep_k(x, grid, seed=args.seed)
        if args.curve_out:
            clustering.write_wss_curve(args.curve_out, curve)
        # print the curve so a human can override the pick with --k
        for kk, w in zip(curve.ks, curve.wss):
            print(f"K={int(kk):>6d}  W={float(w):.6g}")
        k, _ = clustering.select_k_elbow(curve)
        print(f"elbow selected K={k} from grid {list(grid)}")
    else:
        k = args.k
    _, assignment, w = clustering.kmeans(x, k, restarts=restarts, seed=args.seed)
    clustering.write_assignment(args.out, sample_ids, assignment)
    print(f"wrote assignment (K={k}, W={w:.6g}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _stage_settings(args).classifier
    corpus = synthdata.read_corpus(args.corpus)
    assignment = clustering.read_assignment(args.labels, corpus.sample_ids, k=args.num_classes)
    params, head, log = train_classifier(
        corpus.features(args.modality), assignment.labels, assignment.k, config, args.seed
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
    restarts = _stage_settings(args).cluster.restarts
    sample_ids, _, _ = synthdata.read_meta(args.meta)
    za = synthdata.read_embeddings(args.audio_emb, len(sample_ids))
    zv = synthdata.read_embeddings(args.visual_emb, len(sample_ids))
    fused_set = ensemble.fuse_pseudo_labels(za, zv, args.k, restarts=restarts, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    breakdown = ensemble.write_fusion(out_dir, sample_ids, fused_set)
    print(f"wrote fused assignments to {out_dir} ({breakdown})")
    return 0


def _cmd_score(args) -> int:
    if args.fuse:
        unread = [f for f in ("embeddings", "meta", "cohort") if getattr(args, f) is not None]
        if unread:
            raise ConfigError(f"--{unread[0]} is not read with --fuse")
        if not args.weights:
            raise ConfigError("--weights is required with --fuse")
        try:
            weights = [float(w) for w in args.weights.split(",")]
        except ValueError:
            raise ConfigError(f"'--weights' must be numbers, got {args.weights!r}") from None
    elif args.weights is not None:
        raise ConfigError("--weights is not read without --fuse")
    elif not args.embeddings or not args.meta:
        raise ConfigError("--embeddings and --meta are required unless fusing")
    top_n = _stage_settings(args).eval.top_n
    if args.fuse:
        trials = scoring.read_trials(args.trials)
        result = fuse_scores([scoring.read_scores(p, trials) for p in args.fuse], weights)
    else:
        sample_ids, _, _ = synthdata.read_meta(args.meta)
        trials = scoring.read_trials(args.trials, sample_ids)
        if args.cohort:
            cohort_ids, = read_columns(args.cohort, "cohort", (str,))
            cohort_rows = scoring.rows_of(cohort_ids, sample_ids, "cohort")
            if len(cohort_ids) < top_n:
                raise ConfigError(f"'eval.top_n' is {top_n}, more than the {len(cohort_ids)} "
                                  f"ids of cohort file {args.cohort}")
        z = synthdata.read_embeddings(args.embeddings, len(sample_ids))
        result = cosine_score(trials, z)
        if args.cohort:
            result = as_norm(result, z, Cohort(z[cohort_rows]), top_n)
    scoring.write_scores(args.out, result)
    print(f"wrote {len(result)} scores to {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    if args.scores and not args.trials:
        raise ConfigError("--trials is required with --scores")
    if args.trials is not None and not args.scores:
        raise ConfigError("--trials is not read without --scores")
    dcf = _stage_settings(args).dcf
    sample_ids, _, identity_gt = synthdata.read_meta(args.meta)
    report = {"nmi_audio": None, "nmi_visual": None, "nmi_fused": None,
              "eer": None, "min_dcf": None, "threshold": None}
    for name, path in (("nmi_audio", args.audio), ("nmi_visual", args.visual),
                       ("nmi_fused", args.fused)):
        if path:
            report[name] = nmi(clustering.read_assignment(path, sample_ids).labels, identity_gt)
    if args.scores:
        trials = scoring.read_trials(args.trials)
        score_set = scoring.read_scores(args.scores, trials)
        report.update(verification_metrics(score_set, dcf))
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


def _add_common(sub, seed=True):
    sub.add_argument("--config", help="key = value config file")
    if seed:
        sub.add_argument("--seed", type=int, default=None, help="seed override")


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
    p.set_defaults(func=_cmd_pretrain, seed=0)

    p = sub.add_parser("cluster", help="k-means over an embedding file")
    _add_common(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--meta", required=True, help="meta.tsv supplying sample ids")
    p.add_argument("--k", type=int)
    p.add_argument("--k-grid", help="comma list; the elbow picks K")
    p.add_argument("--from-curve", help="run the elbow on a stored WSS curve")
    p.add_argument("--curve-out", help="write the WSS curve here")
    p.add_argument("--out", required=True, help="assignment TSV path")
    p.set_defaults(func=_cmd_cluster, seed=0)

    p = sub.add_parser("train", help="classifier training on pseudo-labels")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--modality", choices=("audio", "visual"), required=True)
    p.add_argument("--labels", required=True, help="assignment TSV of pseudo-labels")
    p.add_argument("--num-classes", type=int, default=None,
                   help="label-space size (default: max label + 1)")
    p.add_argument("--out", required=True)
    p.add_argument("--log-out")
    p.set_defaults(func=_cmd_train, seed=0)

    p = sub.add_parser("fuse", help="cluster two modalities and fuse pseudo-labels")
    _add_common(p)
    p.add_argument("--audio-emb", required=True)
    p.add_argument("--visual-emb", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fuse, seed=0)

    p = sub.add_parser("score", help="cosine scores for a trial list; optional AS-Norm or fusion")
    _add_common(p, seed=False)
    p.add_argument("--trials", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--meta")
    p.add_argument("--cohort", help="file of cohort sample ids enables AS-Norm over eval.top_n")
    p.add_argument("--fuse", nargs="+", help="score files to fuse instead of scoring")
    p.add_argument("--weights", help="comma list of fusion weights")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("metrics", help="clustering/verification metrics report")
    _add_common(p, seed=False)
    p.add_argument("--meta", required=True)
    p.add_argument("--audio", help="audio assignment TSV")
    p.add_argument("--visual", help="visual assignment TSV")
    p.add_argument("--fused", help="fused assignment TSV")
    p.add_argument("--trials")
    p.add_argument("--scores")
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

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``build``    collect data and fine-tune both HPC-GPT variants
``train``    run the unified training engine (pretrain or SFT stage)
             with mid-run checkpoints, ``--resume-from``, and a loss
             curve JSON artifact
``ask``      answer a Task-1 question (``--retrieval`` grounds it in
             the §5 retrieval index with an LM fallback)
``index``    build/extend the persistent retrieval index (ingest files)
``detect``   classify a kernel file (or stdin) for data races
``scan``     scan a whole source tree for data races (JSON/SARIF reports)
``eval``     run the Table-5 evaluation and print both blocks
``serve``    start the web API/GUI
``export``   write the DataRaceBench-equivalent suite to a directory
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.utils.languages import UnknownLanguageError, normalize_language


def _add_preset_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["small", "paper"], default="small",
                   help="model/data scale (small: ~1 min build; paper: ~10 min)")


def _language_arg(name: str) -> str:
    """Argparse type: accept any language alias, canonicalise it."""
    try:
        return normalize_language(name)
    except UnknownLanguageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _make_system(preset: str):
    from repro.core import HPCGPTSystem, PAPER_PRESET, SMALL_PRESET

    return HPCGPTSystem(PAPER_PRESET if preset == "paper" else SMALL_PRESET)


def cmd_build(args) -> int:
    """Collect instruction data and fine-tune both HPC-GPT variants."""
    system = _make_system(args.preset)
    bundle = system.collect_data()
    print(f"collected {len(bundle)} instruction instances "
          f"({bundle.stats.rejected()} rejected by the filter)")
    for version in ("l1", "l2"):
        model = system.finetuned(version)
        print(f"HPC-GPT ({version.upper()}): {model.num_parameters():,} params, "
              f"threshold {system.threshold(version):+.3f}")
    return 0


def cmd_train(args) -> int:
    """Run one training stage through the unified engine.

    ``--stage pretrain`` trains a base-model recipe standalone (own
    tokenizer over the synthetic corpus); ``--stage sft`` fine-tunes a
    fresh copy of the cached base on the collected instruction data.
    Both stages checkpoint periodically and resume bit-exactly.
    """
    import json
    import zipfile

    from repro.train import StepInfo

    if args.checkpoint_every and not args.checkpoint:
        print("error: --checkpoint-every requires --checkpoint", file=sys.stderr)
        return 2
    # Reject silently-ignored stage mismatches (defaults are None so an
    # explicit flag is distinguishable).
    misused = []
    if args.stage == "sft":
        misused = [n for n, v in (("--steps", args.steps), ("--base", args.base)) if v is not None]
    else:
        misused = [n for n, v in (("--epochs", args.epochs), ("--version", args.version)) if v is not None]
    if misused:
        print(f"error: {', '.join(misused)} does not apply to --stage {args.stage}",
              file=sys.stderr)
        return 2
    if args.warmup_steps is not None and args.schedule != "cosine":
        print("error: --warmup-steps requires --schedule cosine",
              file=sys.stderr)
        return 2

    def logger(info: StepInfo) -> None:
        if args.log_every and info.step % args.log_every == 0:
            tag = " (skipped)" if info.skipped else ""
            print(f"  step={info.step} loss={info.loss:.4f} lr={info.lr:.2e}{tag}")

    try:
        trainer = _build_stage_trainer(args)
    except ValueError as exc:  # config validation (bad warmup/steps combo, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 2

    trainer.callbacks.append(logger)
    try:
        report = trainer.train(resume_from=args.resume_from)
    except (ValueError, KeyError, OSError, EOFError, zipfile.BadZipFile) as exc:
        # Missing/corrupt/stage-mismatched --resume-from checkpoints.
        # Anything raised without --resume-from is not a resume problem;
        # let it surface unblamed.
        if args.resume_from is None:
            raise
        print(f"error: cannot resume from {args.resume_from!r}: {exc}", file=sys.stderr)
        return 2
    print(
        f"{args.stage}: {report.steps} steps "
        f"({report.skipped_steps} skipped, resumed from {report.resumed_from_step}), "
        f"{report.tokens} tokens in {report.seconds:.1f}s, "
        f"final loss {report.mean_loss(5):.4f}"
    )
    if args.checkpoint:
        # Always leave the file at the final step — periodic saves stop
        # one interval early, and a stale mid-run checkpoint silently
        # serves old weights to whoever loads it as "the trained model".
        trainer.save_checkpoint(args.checkpoint)
        print(f"wrote final checkpoint to {args.checkpoint}")
    if args.loss_out:
        curve = {
            "stage": args.stage,
            "preset": args.preset,
            "steps": report.steps,
            "skipped_steps": report.skipped_steps,
            "resumed_from_step": report.resumed_from_step,
            # Whole-run counters (steps/losses include the pre-resume
            # prefix restored from the checkpoint); the *_this_run pair
            # covers only the work this invocation actually did.
            "tokens_this_run": report.tokens,
            "seconds_this_run": report.seconds,
            "losses": report.losses,
        }
        Path(args.loss_out).write_text(json.dumps(curve, indent=1) + "\n")
        print(f"wrote loss curve to {args.loss_out}")
    return 0


def _build_stage_trainer(args):
    """Assemble the Trainer for the requested stage (raises ValueError
    on invalid config combinations)."""
    import dataclasses

    if args.stage == "pretrain":
        from repro.llm.pretrain import pretrain_trainer
        from repro.llm.registry import BASE_RECIPES

        base_name = args.base or "llama2-13b-sim"
        system = _make_system(args.preset)
        recipe = BASE_RECIPES[base_name]
        pre = dataclasses.replace(
            system.config.pretrain,
            corpus_scale=recipe["corpus_scale"],
            seed=recipe["seed"],
        )
        if args.steps is not None:
            pre = dataclasses.replace(pre, steps=args.steps)
        if args.schedule is not None:
            pre = dataclasses.replace(
                pre, schedule=args.schedule, warmup_steps=args.warmup_steps or 0
            )
        model_cfg = dataclasses.replace(system.config.model, name=base_name)
        trainer, _ = pretrain_trainer(
            model_cfg,
            pre,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint,
        )
    else:
        system = _make_system(args.preset)
        from repro.core.hpcgpt import _BASES
        from repro.finetune import SFTTrainer

        sft_cfg = system.config.sft
        if args.epochs is not None:
            sft_cfg = dataclasses.replace(sft_cfg, epochs=args.epochs)
        if args.schedule is not None:
            sft_cfg = dataclasses.replace(
                sft_cfg, schedule=args.schedule, warmup_steps=args.warmup_steps or 0
            )
        model = system.registry.base_model(_BASES[args.version or "l2"]).copy()
        records = system.collect_data().records
        trainer = SFTTrainer(model, system.tokenizer, sft_cfg).trainer(
            records,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint,
        )
    return trainer


def cmd_ask(args) -> int:
    """Answer a Task-1 question with the fine-tuned model (optionally
    grounded in the retrieval index)."""
    system = _make_system(args.preset)
    if args.retrieval:
        print(system.answer_with_retrieval(args.question, version=args.version))
    else:
        print(system.answer(args.question, version=args.version))
    return 0


def cmd_index(args) -> int:
    """Build (or reload) the persistent retrieval index, optionally
    ingesting extra documents from text files."""
    system = _make_system(args.preset)
    rag = system.retrieval_answerer(rebuild=args.rebuild)
    print(f"retrieval index ready: {len(rag.store)} chunks "
          f"(dim {rag.store.embedder.dim}, fingerprint {rag.store.fingerprint()})")
    if args.add:
        docs = []
        for name in args.add:
            path = Path(name)
            try:
                text = path.read_text()
            except OSError as exc:
                print(f"error: cannot read {name!r}: {exc}", file=sys.stderr)
                return 2
            docs.append({"text": text, "source": path.name})
        try:
            stats = system.index_documents(docs, max_tokens=args.max_tokens)
        except ValueError as exc:  # e.g. a whitespace-only file
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"ingested {stats['documents']} documents -> {stats['chunks']} chunks "
              f"({stats['added']} new; index now {stats['index_size']})")
    if args.out:
        rag.store.save(args.out)
        print(f"wrote index snapshot to {args.out}")
    return 0


def cmd_detect(args) -> int:
    """Classify a kernel (file or stdin) for data races."""
    code = Path(args.file).read_text() if args.file != "-" else sys.stdin.read()
    system = _make_system(args.preset)
    print(system.detect_race(code, language=args.language, version=args.version))
    return 0


def cmd_scan(args) -> int:
    """Scan a source tree: extract OpenMP kernels, run the cached
    detector ensemble, and emit JSON/SARIF reports."""
    from repro.scan import ScanConfig, ScanPipeline
    from repro.scan.sarif import write_sarif

    config = ScanConfig(
        languages=tuple(args.language) if args.language else None,
        tools_only=args.tools_only,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
    )
    system = None if args.tools_only else _make_system(args.preset)
    pipeline = ScanPipeline(system=system, config=config)
    report = pipeline.scan(args.path)
    print(report.summary())
    if args.json_out:
        report.write_json(args.json_out)
        print(f"wrote JSON report to {args.json_out}")
    if args.sarif:
        write_sarif(report, args.sarif)
        print(f"wrote SARIF report to {args.sarif}")
    if args.fail_on_race and report.racy():
        return 1
    return 0


def cmd_eval(args) -> int:
    """Run the Table-5 evaluation and print both language blocks."""
    from repro.detectors import build_tool_detectors
    from repro.drb import DRBSuite
    from repro.eval import EvaluationHarness, render_table5

    if args.tools_only:
        detectors = build_tool_detectors()
    else:
        detectors = _make_system(args.preset).table5_detectors()
    suite = DRBSuite.evaluation(seed=args.seed)
    out = EvaluationHarness(suite).run(detectors)
    for language in ("C/C++", "Fortran"):
        print(render_table5(out.rows, language))
        print()
    return 0


def cmd_serve(args) -> int:
    """Start the blocking web API/GUI server."""
    from repro.serve.server import serve_forever

    system = _make_system(args.preset)
    system.finetuned("l2")
    serve_forever(system, host=args.host, port=args.port)
    return 0


def cmd_export(args) -> int:
    """Write the benchmark suite (sources + manifest) to a directory."""
    from repro.drb import DRBSuite

    suite = DRBSuite.evaluation(seed=args.seed)
    out_dir = Path(args.out)
    n = suite.write_tree(out_dir)
    print(f"wrote {n} kernels under {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="HPC-GPT reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="collect data and fine-tune HPC-GPT")
    _add_preset_arg(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "train",
        help="run one training stage through the unified engine "
             "(AdamW, one batch per step; checkpoint + resume)",
    )
    _add_preset_arg(p)
    p.add_argument("--stage", choices=["pretrain", "sft"], default="pretrain",
                   help="which training stage to run (default: pretrain)")
    p.add_argument("--base", choices=["llama-13b-sim", "llama2-13b-sim"],
                   help="base-model recipe for --stage pretrain "
                        "(default: llama2-13b-sim)")
    p.add_argument("--version", choices=["l1", "l2"],
                   help="HPC-GPT variant for --stage sft (default: l2)")
    p.add_argument("--steps", type=int, help="override pretrain step count")
    p.add_argument("--epochs", type=int, help="override SFT epoch count")
    p.add_argument("--schedule", choices=["constant", "cosine"],
                   help="LR schedule: constant, or cosine decay to 0 "
                        "(default: the preset's, constant)")
    p.add_argument("--warmup-steps", type=int,
                   help="linear warmup steps before the cosine decay "
                        "(only with --schedule cosine)")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="checkpoint file (written periodically with "
                        "--checkpoint-every, else once at the end)")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                   help="save the checkpoint every K steps")
    p.add_argument("--resume-from", metavar="PATH",
                   help="resume bit-exactly from a checkpoint file")
    p.add_argument("--loss-out", metavar="PATH",
                   help="write the loss-curve JSON here")
    p.add_argument("--log-every", type=int, default=0, metavar="N",
                   help="print loss every N steps")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ask", help="answer a Task-1 question")
    _add_preset_arg(p)
    p.add_argument("question")
    p.add_argument("--version", choices=["l1", "l2"], default="l2")
    p.add_argument("--retrieval", action="store_true",
                   help="ground the answer in the retrieval index "
                        "(hybrid §5 path; falls back to the LM)")
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("index", help="build/extend the retrieval index (§5)")
    _add_preset_arg(p)
    p.add_argument("--add", action="append", metavar="FILE",
                   help="ingest a text file into the index (repeatable)")
    p.add_argument("--max-tokens", type=int, default=128,
                   help="chunking token budget for ingested files (default 128)")
    p.add_argument("--rebuild", action="store_true",
                   help="ignore any persisted index and rebuild from the "
                        "knowledge base")
    p.add_argument("--out", metavar="PATH",
                   help="also write an index snapshot (npz) here")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("detect", help="data-race detection on a kernel file")
    _add_preset_arg(p)
    p.add_argument("file", help="kernel source path, or '-' for stdin")
    p.add_argument("--language", type=_language_arg, default="C/C++",
                   help="kernel language (aliases like c, cpp, f90 accepted)")
    p.add_argument("--version", choices=["l1", "l2"], default="l2")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("scan", help="scan a source tree for data races")
    _add_preset_arg(p)
    p.add_argument("path", help="directory (or single file) to scan")
    p.add_argument("--json", dest="json_out", metavar="PATH",
                   help="write the full ScanReport JSON here")
    p.add_argument("--sarif", metavar="PATH",
                   help="write a SARIF 2.1.0 report here")
    p.add_argument("--language", action="append", type=_language_arg,
                   help="restrict to a language (repeatable; aliases accepted)")
    p.add_argument("--tools-only", action="store_true",
                   help="skip the LLM rows (no model build needed)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and don't update the verdict cache")
    p.add_argument("--cache-dir", help="verdict cache location "
                   "(default: $REPRO_CACHE/scan or .repro_cache/scan)")
    p.add_argument("--fail-on-race", action="store_true",
                   help="exit 1 when the ensemble flags any race (CI mode)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("eval", help="run the Table-5 evaluation")
    _add_preset_arg(p)
    p.add_argument("--tools-only", action="store_true",
                   help="skip LLM rows (no model build needed)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("serve", help="start the web API/GUI")
    _add_preset_arg(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("export", help="write the benchmark suite to disk")
    p.add_argument("out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

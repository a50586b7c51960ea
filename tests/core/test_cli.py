"""Tests for the CLI (parser wiring and the cheap commands)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.drb import DRBSuite


class TestParser:
    def test_all_commands_present(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        assert set(sub.choices) == {
            "build", "train", "ask", "index", "detect", "scan", "eval", "serve",
            "export",
        }

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_detect_args(self):
        args = build_parser().parse_args(
            ["detect", "kernel.c", "--language", "Fortran", "--preset", "paper"]
        )
        assert args.file == "kernel.c" and args.language == "Fortran"
        assert args.preset == "paper"

    def test_detect_language_aliases(self):
        for alias, canonical in (("cpp", "C/C++"), ("f90", "Fortran"), ("C", "C/C++")):
            args = build_parser().parse_args(["detect", "k.c", "--language", alias])
            assert args.language == canonical

    def test_detect_unknown_language_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "k.c", "--language", "rust"])
        assert "unknown language" in capsys.readouterr().err

    def test_train_stage_mismatched_flags_rejected(self, capsys):
        from repro.cli import main

        assert main(["train", "--stage", "sft", "--steps", "50"]) == 2
        assert "--steps" in capsys.readouterr().err
        assert main(["train", "--stage", "pretrain", "--epochs", "3"]) == 2
        assert "--epochs" in capsys.readouterr().err
        assert main(["train", "--checkpoint-every", "5"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_train_bad_warmup_clean_error(self, capsys):
        from repro.cli import main

        rc = main(["train", "--preset", "small", "--steps", "10",
                   "--schedule", "cosine", "--warmup-steps", "20"])
        assert rc == 2
        assert "warmup_steps" in capsys.readouterr().err

    def test_train_warmup_without_cosine_rejected(self, capsys):
        from repro.cli import main

        assert main(["train", "--warmup-steps", "5"]) == 2
        assert "--schedule cosine" in capsys.readouterr().err
        assert main(["train", "--schedule", "constant", "--warmup-steps", "5"]) == 2
        assert "--schedule cosine" in capsys.readouterr().err

    def test_train_schedule_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--schedule", "warmup-cosine"])
        assert "invalid choice" in capsys.readouterr().err

    def test_train_bad_resume_file_clean_error(self, capsys, tmp_path):
        from repro.cli import main

        missing = str(tmp_path / "nope.npz")
        rc = main(["train", "--preset", "small", "--steps", "5",
                   "--resume-from", missing])
        assert rc == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_scan_args(self):
        args = build_parser().parse_args(
            ["scan", "src/", "--tools-only", "--language", "c",
             "--language", "fortran", "--sarif", "out.sarif"]
        )
        assert args.path == "src/"
        assert args.tools_only
        assert args.language == ["C/C++", "Fortran"]
        assert args.sarif == "out.sarif"


class TestEval:
    def test_tools_only_builds_no_model(self, monkeypatch, capsys):
        import repro.cli as cli

        def no_build(preset):
            raise AssertionError("tools-only eval must not build a system")

        monkeypatch.setattr(cli, "_make_system", no_build)
        assert cli.main(["eval", "--tools-only"]) == 0
        out = capsys.readouterr().out
        for language in ("C/C++", "Fortran"):
            block = out.split(f"Table 5 — {language}")[1].split("Table 5 —")[0]
            rows = [line.split()[0] for line in block.splitlines()[3:] if line.strip()]
            assert rows == ["LLOV", "Intel", "ROMP", "Thread"]


class TestExport:
    def test_export_writes_manifest_and_sources(self, tmp_path):
        # A small sub-suite keeps the test fast.
        full = DRBSuite.evaluation(seed=0)
        small = DRBSuite(full.specs[:6] + full.by_language("Fortran")[:6])
        n = small.write_tree(tmp_path)
        assert n == 12
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest) == 12
        for entry in manifest:
            path = tmp_path / entry["file"]
            assert path.exists()
            assert entry["label"] in ("yes", "no")
        assert (tmp_path / "c").exists() and (tmp_path / "fortran").exists()

    def test_export_cli_roundtrip(self, tmp_path, capsys):
        rc = main(["export", str(tmp_path / "drb")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote 343 kernels" in out

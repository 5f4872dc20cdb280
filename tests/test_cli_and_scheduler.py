"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_targets_command(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        assert "avx" in out and "fdlibm" in out

    def test_compile_builtin_benchmark(self, capsys):
        code = main([
            "compile", "acoth", "--target", "fdlibm",
            "--iterations", "1", "--points", "12",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "input" in out and "output" in out

    def test_compile_from_file(self, tmp_path, capsys):
        src = tmp_path / "bench.fpcore"
        src.write_text(
            "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"
        )
        assert main([
            "compile", str(src), "--target", "c99",
            "--iterations", "1", "--points", "12", "--infix",
        ]) == 0
        out = capsys.readouterr().out
        assert "cost=" in out

    def test_compile_code_emission(self, capsys):
        assert main([
            "compile", "midpoint", "--target", "c99",
            "--iterations", "1", "--points", "8", "--code",
        ]) == 0
        assert "#include <math.h>" in capsys.readouterr().out

    def test_sample_command(self, capsys):
        assert main(["sample", "acoth", "--points", "8"]) == 0
        assert "acceptance" in capsys.readouterr().out

    def test_score_command(self, capsys):
        assert main(["score", "sqrt-sub", "--target", "c99", "--points", "16"]) == 0
        assert "bits of error" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["score", "sqrt-sub", "--points", "0"],
        ["sample", "sqrt-sub", "--points", "0"],
        ["compile", "sqrt-sub", "--iterations", "-1"],
        ["batch", "sqrt-sub", "--points", "-3"],
        ["report", "--benchmarks", "0"],
    ])
    def test_size_flags_reject_out_of_range_values(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_missing_input_fails(self):
        with pytest.raises(SystemExit):
            main(["compile", "/nonexistent/file.fpcore"])

    def test_compile_with_target_file(self, tmp_path, capsys):
        target_src = tmp_path / "mini.tgt"
        target_src.write_text(
            """
            (define-operator (mul.f64 [a binary64] [b binary64]) binary64
              #:approx (* a b) #:link mul64 #:cost 3)
            (define-operator (add.f64 [a binary64] [b binary64]) binary64
              #:approx (+ a b) #:link add64 #:cost 3)
            (define-target mini
              #:literals ([binary64 1])
              #:operators (mul.f64 add.f64))
            """
        )
        bench = tmp_path / "bench.fpcore"
        bench.write_text("(FPCore f (x) :pre (< 0.1 x 10) (* x (+ x 1)))")
        assert main([
            "compile", str(bench), "--target-file", str(target_src),
            "--iterations", "1", "--points", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "on mini" in out

"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import main

HELLO = """
int main() {
  print_int(6 * 7);
  return 0;
}
"""


@pytest.fixture
def hello_file(tmp_path):
    path = tmp_path / "hello.c"
    path.write_text(HELLO)
    return str(path)


def test_cli_run(hello_file, capsys):
    assert main(["run", hello_file]) == 0
    out = capsys.readouterr().out
    assert "42" in out


def test_cli_run_with_phases(hello_file, capsys):
    assert main(["run", hello_file, "--phases", "mem2reg",
                 "instcombine"]) == 0
    assert "42" in capsys.readouterr().out


def test_cli_ir(hello_file, capsys):
    assert main(["ir", hello_file]) == 0
    out = capsys.readouterr().out
    assert "define i64 @main" in out


def test_cli_profile(hello_file, capsys):
    assert main(["profile", hello_file, "--target", "riscv"]) == 0
    out = capsys.readouterr().out
    assert "exec_time_us" in out
    assert "code_size_bytes" in out


def test_cli_phases(capsys):
    assert main(["phases"]) == 0
    out = capsys.readouterr().out
    assert "mem2reg" in out
    assert "loop-unroll" in out


def test_cli_features(hello_file, capsys):
    assert main(["features", hello_file]) == 0
    out = capsys.readouterr().out
    assert "n_instructions" in out


def test_cli_workloads(capsys):
    assert main(["workloads", "--suite", "parsec"]) == 0
    out = capsys.readouterr().out
    assert "parsec/blackscholes" in out
    assert "beebs/" not in out


def test_cli_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_mlcomp_engine_knobs_parse(tmp_path):
    """The engine knobs reach MLComp's EvaluationEngine configuration."""
    from repro.cli import build_parser
    from repro.pipeline import MLComp
    args = build_parser().parse_args(
        ["mlcomp", "--target", "riscv",
         "--farm-dir", str(tmp_path / "farm"),
         "--eval-mode", "process", "--workers", "2"])
    assert args.eval_mode == "process"
    assert not args.no_cache
    mlcomp = MLComp(target="riscv", farm_dir=args.farm_dir,
                    eval_mode=args.eval_mode, workers=args.workers)
    assert mlcomp.engine.cache.max_entries == 4096
    assert mlcomp.engine.farm_dir == str(tmp_path / "farm")
    assert mlcomp.engine.cache.store_dir == mlcomp.engine.farm_dir
    assert mlcomp.engine.evaluator.mode == "process"
    assert mlcomp.engine.evaluator.workers == 2
    disabled = MLComp(target="riscv", cache=False)
    assert disabled.engine.cache is None


def test_cli_rejects_thread_eval_mode(capsys):
    from repro.cli import build_parser
    with pytest.raises(SystemExit):
        build_parser().parse_args(["mlcomp", "--eval-mode", "thread"])


@pytest.mark.parametrize("flag", [["--scheduler-workers", "2"],
                                  ["--cache-dir", "d"],
                                  ["--max-retries", "2"],
                                  ["--no-degrade"],
                                  ["--cache-size", "64"]],
                         ids=["scheduler-workers", "cache-dir",
                              "max-retries", "no-degrade", "cache-size"])
def test_cli_rejects_removed_engine_flags(capsys, flag):
    from repro.cli import build_parser
    with pytest.raises(SystemExit):
        build_parser().parse_args(["mlcomp", *flag])

"""The CLI's shape: which flags each verb accepts, and how bad values fail.

Every verb is an argparse sub-parser that declares only the flags its
handler reads, so a flag on the wrong verb and an out-of-range number
are usage errors (exit 2, the flag named, no traceback) before anything
runs.  The documented usage lines must keep parsing, and sweeps must
keep configuring the engine through ``repro.cli.configure_engine``,
the seam the benchmark's set-up probe patches.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core import experiment

REPO = Path(__file__).resolve().parents[2]

FAST_FLAGS = [
    "--instructions",
    "1500",
    "--timing-warmup",
    "300",
    "--functional-warmup",
    "20000",
]


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_SPANS", raising=False)
    experiment.clear_cache()
    yield
    experiment.clear_cache()


def _usage_error(capsys, argv: list[str]) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


#: One flag per verb that the verb does not read.
FOREIGN_FLAGS = [
    (["figure4", "--format", "json"], "--format"),
    (["all", "--a", "banked-1"], "--a"),
    (["runs", "--no-cache"], "--no-cache"),
    (["runs", "list", "--jobs", "2"], "--jobs"),
    (["runs", "show", "--resume"], "--resume"),
    (["runs", "compare", "--attribution"], "--attribution"),
    (["runs", "resume", "--format", "json"], "--format"),
    (["cache", "info", "--jobs", "2"], "--jobs"),
    (["trace", "gcc", "--resume"], "--resume"),
    (["metrics", "gcc", "--jobs", "2"], "--jobs"),
    (["counters", "gcc", "--no-cache"], "--no-cache"),
    (["compare", "gcc", "--from-counters"], "--from-counters"),
    (["diagnose", "gcc", "--trace-out", "x.json"], "--trace-out"),
    (["spans", "--rel-tol", "1"], "--rel-tol"),
    # Flags no verb reads any more.
    (["figure1", "--serve-metrics", "9100"], "--serve-metrics"),
    (["figure4", "--resume"], "--resume"),
]


@pytest.mark.parametrize(
    "argv, flag", FOREIGN_FLAGS, ids=[" ".join(a) for a, _ in FOREIGN_FLAGS]
)
def test_a_flag_on_the_wrong_verb_is_a_usage_error(capsys, argv, flag):
    err = _usage_error(capsys, argv)
    assert f"unrecognized arguments: {flag}" in err


BAD_NUMBERS = [
    (["figure1", "--jobs", "0"], "--jobs"),
    (["figure1", "--jobs", "two"], "--jobs"),
    (["runs", "resume", "--jobs", "0"], "--jobs"),
    (["figure1", "--point-timeout", "0"], "--point-timeout"),
    (["counters", "gcc", "--interval", "0"], "--interval"),
    (["diagnose", "gcc", "--from-counters", "--interval", "-2"], "--interval"),
    (
        ["counters", "gcc", "--format", "chrome", "--trace-limit", "-1"],
        "--trace-limit",
    ),
    (["trace", "gcc", "--trace-limit", "-1"], "--trace-limit"),
    (["trace", "gcc", "--trace-tail", "-3"], "--trace-tail"),
    (["runs", "compare", "--rel-tol", "nan"], "--rel-tol"),
    (["runs", "compare", "--rel-tol", "inf"], "--rel-tol"),
    (["runs", "compare", "--rel-tol", "-1"], "--rel-tol"),
    (["metrics", "gcc", "--instructions", "0"], "--instructions"),
    (["metrics", "gcc", "--instructions", "-5"], "--instructions"),
    (["figure4", "--timing-warmup", "-500"], "--timing-warmup"),
    (["figure4", "--functional-warmup", "-1"], "--functional-warmup"),
]


@pytest.mark.parametrize(
    "argv, flag", BAD_NUMBERS, ids=[" ".join(a) for a, _ in BAD_NUMBERS]
)
def test_out_of_range_numbers_are_usage_errors(capsys, argv, flag):
    err = _usage_error(capsys, argv)
    assert f"argument {flag}:" in err


def test_trace_tail_zero_prints_no_tail(capsys):
    argv = ["trace", "gcc", "--trace-limit", "50", *FAST_FLAGS]
    assert main([*argv, "--trace-tail", "0"]) == 0
    out = capsys.readouterr().out
    assert "50 of " in out  # the ring retained events ...
    assert "last " not in out  # ... but none are printed
    assert '{"' not in out
    experiment.clear_cache()  # trace the point again, not its memo
    assert main([*argv, "--trace-tail", "3"]) == 0
    out = capsys.readouterr().out
    assert "last 3 events:" in out


def _documented_commands() -> list[str]:
    """Every ``python -m repro`` line of the module docstring and of
    README's code blocks, minus env assignments and comments."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", readme, re.M | re.S)
    commands = []
    for line in [*cli.__doc__.splitlines(), *"".join(blocks).splitlines()]:
        command = re.match(r"\s*(?:\w+=\S+\s+)*python -m repro (.*)", line)
        if command:
            commands.append(command.group(1).split("#")[0].strip())
    return commands


DOCUMENTED = _documented_commands()


@pytest.mark.parametrize("command", DOCUMENTED)
def test_documented_usage_parses(command):
    args = cli._parser().parse_args(shlex.split(command))
    assert callable(args.func)


def test_documentation_was_found():
    assert len(DOCUMENTED) > 50


def test_sweeps_configure_the_engine_through_the_cli_module(
    monkeypatch, capsys
):
    """The first engine configuration goes through the module global,
    before any experiment runs: the set-up probe's end mark."""

    class Configured(Exception):
        pass

    def configure_engine(*args, **kwargs):
        raise Configured

    monkeypatch.setattr(cli, "configure_engine", configure_engine)
    with pytest.raises(Configured):
        main(["figure1"])
    assert capsys.readouterr().out == ""

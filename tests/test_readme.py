"""The README's examples run or parse as written, so they cannot drift from the API."""

import pathlib
import re
import shlex

from fishershift.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_library_quick_start_runs(capsys):
    (block,) = blocks("python")
    exec(compile(block, str(README), "exec"), {})
    assert 0.5 < float(capsys.readouterr().out) <= 1.0


def test_command_lines_parse():
    # Joined continuations; each command line is parsed, not run.
    lines = "".join(blocks("bash")).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv[1:] for argv in commands if argv[:1] == ["fishershift"]]
    assert {argv[0] for argv in commands} == {"synth", "train", "sweep", "report"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)

"""The command-line surface, pinned: every subcommand's flags, types, defaults,
choices and required options as build_parser() builds them, compared with the
checked-in cli_options.json. Adding, dropping or changing an option shows up
here as a diff.

After an intended change, rewrite the snapshot with
    PYTHONPATH=src python tests/test_cli_options.py
"""
import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from debris_ews import cli
from debris_ews.cli import build_parser

SNAPSHOT = Path(__file__).with_name("cli_options.json")
PINNED = json.loads(SNAPSHOT.read_text())


def option_rows() -> list[dict]:
    """One record per (subcommand, option), in parser order."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    rows = []
    for name, p in sub.choices.items():
        command = p.get_default("_command")
        for action in p._actions:
            if action.option_strings and action.dest != "help":
                rows.append({
                    "command": name,
                    "flags": action.option_strings,
                    "type": "store_true" if action.nargs == 0 else getattr(action.type, "__name__", None),
                    "default": command.defaults.get(action.dest),
                    "choices": None if action.choices is None else list(action.choices),
                    "required": action.dest in command.required,
                })
    return rows


def test_options_match_snapshot():
    assert option_rows() == PINNED


COMMANDS = list(dict.fromkeys(row["command"] for row in PINNED))
# a value every option of its type accepts, above every minimum
SAMPLES = {"int": 3, "float": 0.5, "_parse_depth": 4, "str": "x", "store_true": True}


def _samples(command: str) -> dict[str, object]:
    """flag -> a value the option accepts, for every option of the command but --config."""
    rows = [r for r in PINNED if r["command"] == command and r["flags"] != ["--config"]]
    return {r["flags"][0]: r["choices"][-1] if r["choices"] else SAMPLES[r["type"]] for r in rows}


def _resolved(parser, argv: list[str]) -> dict:
    args = parser.parse_args(argv)
    return args._command.resolve(args)


def _run_main(argv):
    """main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subcommand_parser_equals_the_full_one(command, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    one, full = build_parser(command), build_parser()
    (sub,) = [a for a in one._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == [command]
    helps = []
    for parser in (one, full):
        with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()) as text:
            parser.parse_args([command, "-h"])
        helps.append(text.getvalue())
    assert helps[0] == helps[1] and f"usage: debris-ews {command} " in helps[0]

    samples = _samples(command)
    argv = [command]
    for flag, value in samples.items():
        argv += [flag] if value is True else [flag, str(value)]
    flags = _resolved(full, argv)
    assert _resolved(one, argv) == flags
    config = tmp_path / "config.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): value for flag, value in samples.items()}))
    argv = [command, "--config", str(config)]
    assert _resolved(one, argv) == _resolved(full, argv) == flags


@pytest.mark.parametrize("argv", [[], ["-h"], ["--version"], ["bogus"], ["synt"], ["--out", "x"], ["--", "synth"],
                                  ["synth", "-h"], ["synth", "--version"], ["bootstrap-ci", "--scores", "s"]])
def test_main_prints_what_the_full_parser_prints(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    printed = _run_main(argv)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())  # every subcommand, always
    assert _run_main(argv) == printed


def test_main_builds_only_the_subcommand_it_runs(tmp_path, monkeypatch):
    built = []
    init = cli._Command.__init__

    def counted(self, sub, name, *rest):
        built.append(name)
        init(self, sub, name, *rest)

    monkeypatch.setattr(cli._Command, "__init__", counted)
    missing = tmp_path / "missing.csv"
    assert cli.main(["bootstrap-ci", "--scores", str(missing), "--seed", "1", "--out", str(tmp_path / "ci")]) == 1
    assert built == ["bootstrap-ci"]
    built.clear()
    assert cli.main(["bootstrap"]) == 1
    assert built == COMMANDS


if __name__ == "__main__":
    SNAPSHOT.write_text("[\n" + ",\n".join(json.dumps(r) for r in option_rows()) + "\n]\n")

"""The command-line surface, pinned: every subcommand's flags, types, defaults,
choices and required options as build_parser() builds them, compared with the
checked-in cli_options.json. Adding, dropping or changing an option shows up
here as a diff.

After an intended change, rewrite the snapshot with
    PYTHONPATH=src python tests/test_cli_options.py
"""
import argparse
import json
from pathlib import Path

from debris_ews.cli import build_parser

SNAPSHOT = Path(__file__).with_name("cli_options.json")


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
    assert option_rows() == json.loads(SNAPSHOT.read_text())


if __name__ == "__main__":
    SNAPSHOT.write_text("[\n" + ",\n".join(json.dumps(r) for r in option_rows()) + "\n]\n")

"""Pin the command-line surface of ``python -m repro``.

``tests/goldens/cli_surface.json`` lists every flag of every subcommand
that :func:`repro.__main__.build_parser` builds: its option strings, dest,
default, whether it is required, its action type and its value type.  A
refactor of the parser plumbing must leave this byte-identical; a flag that
appears on, or disappears from, a subcommand is a user-visible change and
fails here.  Regenerate after an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_cli_surface.py --update-goldens
"""

import argparse

from repro.__main__ import build_parser


def _describe(action: argparse.Action) -> dict:
    default = action.default
    if not isinstance(default, (type(None), bool, int, float, str)):
        default = repr(default)
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": default,
        "required": action.required,
        "action": type(action).__name__,
        "type": getattr(action.type, "__name__", None),
    }


def cli_surface() -> dict:
    """``{subcommand: {first option string: flag description}}``."""
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: {
            action.option_strings[0]: _describe(action)
            for action in sub._actions
        }
        for name, sub in subparsers.choices.items()
    }


def test_cli_surface_golden(golden):
    golden("cli_surface", cli_surface())

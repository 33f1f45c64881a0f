"""Tests for the command list of tools/stdout_audit.py.

Proves:
  1. Every audited command parses with the CLI's own parser, so a flag
     renamed or removed fails here, not only when the audit runs.
  2. No two audited commands parse to the same arguments, so the audit
     spends no run on a command it already fingerprints (a flag given at
     its default value is the same command).
"""
import importlib.util
import pathlib
import shlex

from latticegossip import cli

AUDIT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "stdout_audit.py"


def audited_commands():
    spec = importlib.util.spec_from_file_location("stdout_audit", AUDIT)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    return audit.COMMANDS


def test_audited_commands_parse_and_are_distinct():
    parser = cli.build_parser()
    seen = {}
    for command in audited_commands():
        args = vars(parser.parse_args(shlex.split(command)))
        twin = next((c for c, a in seen.items() if a == args), None)
        assert twin is None, f"{command!r} parses as {twin!r}"
        seen[command] = args

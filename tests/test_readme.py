"""The README's command-line examples run as written, and its package
layout names only what the package has.

Each ``stochage ...`` command of the first ``sh`` block under "Command
line" goes through :func:`stochage.cli.main`, with its model path taken
from the repository root and its ``--out`` directory moved under the
test's temporary directory.  A flag the CLI no longer has fails here
instead of surviving in the docs, and so does a name in the "Package
layout" table that no module or class of the package has.
"""

import argparse
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import stochage
from stochage.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """The argument lists of the ``stochage`` commands in the README's
    command-line block, backslash continuations joined, comments skipped."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.strip().startswith("stochage ")]


COMMANDS = readme_commands()


def test_block_has_every_subcommand():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert {argv[0] for argv in COMMANDS} == set(sub.choices)


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_exits_zero(argv, tmp_path):
    argv = list(argv)
    for i, flag in enumerate(argv[:-1]):
        if flag == "--model":
            argv[i + 1] = str(ROOT / argv[i + 1])
        elif flag == "--out":
            argv[i + 1] = str(tmp_path / argv[i + 1])
    assert main(argv) == 0


def layout_names() -> set[str]:
    """The backticked identifiers of the README's "Package layout" table."""
    text = (ROOT / "README.md").read_text()
    table = text.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_]\w*)`", table))


def package_names() -> set[str]:
    """The modules of ``stochage``, their attributes and their classes' members."""
    names = set()
    for info in pkgutil.iter_modules(stochage.__path__):
        names.add(info.name)
        for attr, value in vars(importlib.import_module(f"stochage.{info.name}")).items():
            names.add(attr)
            if inspect.isclass(value):
                names.update(dir(value), getattr(value, "__dataclass_fields__", ()))
    return names


def test_layout_table_names_only_what_the_package_has():
    names = layout_names()
    assert len(names) > 20
    assert not names - package_names(), sorted(names - package_names())

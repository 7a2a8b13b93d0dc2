"""The README's command examples, run and compared byte for byte.

Each paragraph of a `sh` block in README.md that starts with a
`$ plam ...` line is one example: the command is run through
`plam.cli.main`, and the paragraph's other lines are its exact standard
output.
"""

import re
import shlex
from pathlib import Path

import pytest

from plam.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, str]]:
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M):
        for paragraph in block.split("\n\n"):
            command, *output = paragraph.strip("\n").split("\n")
            if command.startswith("$ plam "):
                examples.append(
                    (command[len("$ plam ") :], "".join(f"{line}\n" for line in output))
                )
    return examples


EXAMPLES = _examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(capsys, command, expected):
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out == expected
    assert captured.err == ""

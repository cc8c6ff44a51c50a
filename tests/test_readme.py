"""The README's library tour runs as written, and its option table is the code's table."""

import re
from pathlib import Path

from learnedbloom import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_tour"})


def test_option_table_is_the_code_table():
    text = README.read_text(encoding="utf-8")
    table = text.split("| command and mode | needs | never reads |\n|---|---|---|\n", 1)[1]
    rows = []
    for line in table[: table.index("\n\n")].splitlines():
        mode, needs, unread = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((re.search(r"`([^`]*)`", mode)[1], needs, unread))

    def cell(names):
        return ", ".join(f"`--{name}`" for name in names) or "none"

    assert rows == [
        (f"{command} {mode}".rstrip(), cell((*always, *needs)), cell(unread))
        for command, (always, _, modes) in cli._OPTIONS.items()
        for mode, (needs, unread) in modes.items()
    ]

"""The README's environment-variable table lists exactly the ``REPRO_*``
names the package reads: a new knob cannot land undocumented, and a
deleted one cannot stay documented."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"REPRO_[A-Z_]+")


def names_in_source() -> set[str]:
    return {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in NAME.findall(path.read_text(encoding="utf-8"))
    }


def names_in_readme_table() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    return {
        match.group(0)
        for line in section.splitlines()
        if line.startswith("| `REPRO_")
        for match in [NAME.search(line)]
    }


def test_readme_table_matches_source():
    documented = names_in_readme_table()
    used = names_in_source()
    assert sorted(used - documented) == [], "undocumented REPRO_* names"
    assert sorted(documented - used) == [], "documented names no code reads"


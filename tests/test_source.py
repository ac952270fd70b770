"""Layout checks on the package source, src/enaqt."""

import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "enaqt"


def test_lines_fit_79_columns():
    long = [f"{path.name}:{number} ({len(line)} columns)"
            for path in sorted(PACKAGE.glob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 79]
    assert not long

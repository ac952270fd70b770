"""The README's library quickstart runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_prints_the_numbers_of_its_comments():
    # each print(...) line ends in a comment with the numbers it prints;
    # a printed value must lie within one unit of the last digit shown
    (block,) = re.findall(r"```python\n(.*?)```",
                          README.read_text(encoding="utf-8"), re.S)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    comments = [line.partition("#")[2] for line in block.splitlines()
                if line.startswith("print(")]
    outputs = printed.getvalue().splitlines()
    assert len(outputs) == len(comments) > 0
    for comment, output in zip(comments, outputs):
        shown = re.findall(r"\d+\.\d+", comment)
        got = [float(v) for v in output.split()]
        assert len(got) == len(shown), (comment, output)
        for value, text in zip(got, shown):
            unit = 10.0 ** -len(text.partition(".")[2])
            assert abs(value - float(text)) <= unit, (text, value)

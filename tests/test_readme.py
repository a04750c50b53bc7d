"""The README's library example runs and returns what its comments show."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_returns_its_commented_values():
    namespace: dict = {}
    checked = []
    for line in _library_example().splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(code, namespace)
            continue
        got = eval(code, namespace)
        expected = ast.literal_eval(comment.strip())
        # A tuple ending in "..." shows only its first items.
        if isinstance(expected, tuple) and expected and expected[-1] is Ellipsis:
            expected = expected[:-1]
            got = got[:len(expected)]
        assert got == expected, line
        checked.append(code.strip())
    assert checked == ['vector.value("V")', 'vector.value("ARI")', "vector.values", "vector.spans"]

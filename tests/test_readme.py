"""README's code must run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(title: str) -> str:
    """The first ``python`` code block under the README heading ``## <title>``."""
    text = README.read_text()
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under '## {title}'"
    return match.group(1)


def test_library_use_block_runs(capsys):
    exec(compile(section_code("Library use"), str(README), "exec"), {})
    printed = capsys.readouterr().out
    for label in ("identity-sum", "tanh-sum", "identity-max", "tanh-max"):
        assert label in printed

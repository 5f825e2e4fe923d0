"""The README's library quick start runs as printed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the duality verdict, the closed-form threshold, the fixation line
    assert lines[0].startswith("True ")
    assert lines[1].startswith("2.77258872")
    verdict, loss = lines[2].split()
    assert verdict == "recurrent-looking" and 0.0 < float(loss) < 1.0

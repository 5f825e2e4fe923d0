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


def test_docs_name_every_config_key_and_command():
    # the config module's key list is the parser's, and every command the
    # CLI builds has a row in README's subcommand table
    from cannings import cli, config

    listed = set(re.findall(r"^\s+((?:model|run|output)\.[\w.]+)",
                            config.__doc__, re.MULTILINE))
    listed |= set(re.findall(r", ((?:model|run|output)\.[\w.]+)",
                             config.__doc__))
    assert listed == config.KNOWN_KEYS
    rows = set(re.findall(r"^\| `([\w-]+)`", README.read_text(encoding="utf-8"),
                          re.MULTILINE))
    assert set(cli._COMMANDS) <= rows

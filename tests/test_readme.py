import re
from pathlib import Path

import pytest

from egbp.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    # The programmatic example in README.md is documented API: run it as is.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.startswith("converged ")


def test_readme_config_example_runs(monkeypatch, tmp_path, capsys):
    # README's run.cfg, run as README runs it: `egbp smooth --config run.cfg`
    blocks = re.findall(r"^```ini\n(# run\.cfg\n.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    (tmp_path / "run.cfg").write_text(blocks[0])
    monkeypatch.chdir(tmp_path)
    assert main(["smooth", "--config", "run.cfg"]) == 0
    lines = (tmp_path / "smooth.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header, then levels = 4 from the file
    # under another subcommand the file's experiment = smooth is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["custom", "--config", "run.cfg", "--out", "custom"])
    assert exc.value.code == 2
    assert "config file sets experiment = smooth" in capsys.readouterr().err
    assert not (tmp_path / "custom").exists()


@pytest.mark.parametrize("experiment", ["smooth", "layer", "condition", "custom"])
def test_readme_common_flags_match_parser(capsys, experiment):
    # README's "Common flags" paragraph names exactly the flags egbp accepts
    text = README.read_text()
    paragraph = text[text.index("Common flags:"):].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z-]+)", paragraph))
    with pytest.raises(SystemExit):
        main([experiment, "--help"])
    accepted = set(re.findall(r"(--[a-z-]+)", capsys.readouterr().out)) - {"--help"}
    assert documented == accepted

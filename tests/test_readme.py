"""The README's config example and library snippet, run as written."""

import json
import pathlib
import re

from resonance import cli

_README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after `heading`."""
    rest = _README[_README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", rest, re.S).group(1)


def test_config_example_validates_and_builds():
    cfg = cli.validate_config(json.loads(_block("### Config format", "json")))
    model = cli.build_model(cfg)
    assert model.domain == cli.THEOREMS[cfg["theorem"]][0]


def test_library_snippet_certifies_a_nonzero_degree(capsys):
    namespace: dict = {}
    exec(_block("## Library use", "python"), namespace)
    cert = namespace["cert"]
    assert cert.converged and cert.degree != 0
    assert f"{cert.degree}" in capsys.readouterr().out

"""The README's config example and library snippet, run as written."""

import dataclasses
import json
import math
import pathlib
import re

import pytest

from resonance import cli
from resonance import model as rm
from resonance import solver as sv

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


def test_certificate_keys_in_the_readme_are_the_ones_written(tmp_path):
    # every key _write_certificate can write, read off a certificate whose
    # optional fields are all set and whose diagnostics answer every key
    class EveryKey(dict):
        def __getitem__(self, key):
            return 1

        def get(self, key, default=None):
            return 1

    model = rm.from_expression("2*x - cos(t)", 2 * math.pi)
    cert = dataclasses.replace(sv.homotopy_solve(model), rotation=1.0,
                               degree=1, radius_used=8.0,
                               diagnostics=EveryKey())
    report = cli.Report()
    cli._write_certificate(cert, model, str(tmp_path), report)
    written = {k.removeprefix("certificate.") for k, _ in report.lines}
    listed = re.search(r"and the `certificate\.\*`\s+keys:(.*?)\. A lost path",
                       _README, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == written


def _parser_flags(capsys) -> set:
    """The --flags that cli.main's parser accepts, over all subcommands,
    read off its help."""
    def help_of(argv):
        with pytest.raises(SystemExit):
            cli.main(argv + ["--help"])
        return capsys.readouterr().out

    commands = re.search(r"\{(\w+(?:,\w+)+)\}", help_of([])).group(1)
    return {flag for command in commands.split(",")
            for flag in re.findall(r"(--[\w-]+)", help_of([command]))}


def test_command_line_flags_in_the_readme_are_the_parsers(capsys):
    # a flag documented under "Command line" must still be accepted, so a
    # retired one cannot stay in the prose
    section = _README[_README.index("## Command line"):
                      _README.index("### Config format")]
    documented = set(re.findall(r"(?<![\w-])(--[a-zA-Z][\w-]*)", section))
    accepted = _parser_flags(capsys)
    assert {"--config", "--out", "--theorem", "--T"} <= documented
    assert "--tol-override" not in accepted
    assert documented <= accepted, documented - accepted


def test_config_prose_names_exactly_the_keys_the_cli_accepts():
    # "Config format" names every top-level key validate_config allows and
    # none it retired; the grids sentence lists the keys allowed there, and
    # the radial sentence its keys with their defaults in order
    section = _README[_README.index("### Config format"):]
    section = section[:section.index("\n### ", 1)]
    named = set(re.findall(r"`(\w+)", section))
    assert cli._TOP_KEYS <= named, cli._TOP_KEYS - named
    assert "tolerances" not in section and "k_min" not in section
    sentence = re.search(r"`grids` accepts(.*?)\.\s", section,
                         re.S).group(1)
    assert set(re.findall(r"`(\w+)`", sentence)) == cli._GRID_KEYS
    radial = re.search(r"((?:`radial\.\w+`(?:,\s+|\s+and\s+))+`radial\.\w+`)"
                       r"\s+\(defaults ([^)]*)\)", section)
    names = re.findall(r"`radial\.(\w+)`", radial.group(1))
    defaults = [int(d) for d in re.findall(r"\d+", radial.group(2))]
    assert dict(zip(names, defaults)) == cli._RADIAL_DEFAULTS
    assert len(names) == len(defaults) == len(cli._RADIAL_DEFAULTS)

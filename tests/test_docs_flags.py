"""The docs check's flag passes: every documented serve/loadgen flag
exists, every flag those verbs register is documented, and every
documented ``repro <verb> …`` command line names only flags its verb
accepts."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_links.py"


@pytest.fixture()
def check_links():
    spec = importlib.util.spec_from_file_location("check_links", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_documented_flag_exists(check_links):
    documented = check_links.documented_flags()
    assert (("serve",), "--no-store") in documented
    assert (("loadgen",), "--chaos") in documented
    assert check_links.check_flags() == []


def test_a_flag_the_parser_lacks_fails_the_pass(check_links, monkeypatch):
    parsers = check_links.verb_parsers()
    serve = parsers["serve"]
    serve._actions = [action for action in serve._actions
                      if "--log-json" not in action.option_strings]
    monkeypatch.setattr(check_links, "verb_parsers", lambda: parsers)
    assert check_links.check_flags() == [
        "docs/OPERATIONS.md documents `--log-json` under `repro serve`, "
        "which no verb of that heading accepts"]


def test_a_flag_the_table_lacks_fails_the_pass(check_links, monkeypatch):
    parsers = check_links.verb_parsers()
    parsers["loadgen"].add_argument("--undocumented-knob", type=int)
    monkeypatch.setattr(check_links, "verb_parsers", lambda: parsers)
    assert check_links.check_flags() == [
        "`repro loadgen` accepts `--undocumented-knob`, which its flag table "
        "in docs/OPERATIONS.md does not document"]


def test_every_documented_command_line_names_real_flags(check_links):
    assert check_links.check_command_lines() == []


def test_an_unknown_flag_on_a_command_line_fails_the_pass(check_links,
                                                          monkeypatch,
                                                          tmp_path):
    doc = tmp_path / "README.md"
    doc.write_text(
        "Start it with `repro loadgen --chaos kill-shard:t=1\n"
        "--chaos-p99-ms 5`, or:\n\n"
        "```bash\n"
        "python -m repro serve --shards 2 \\\n"
        "    --inject shard.hang:at=1 > serve.log 2>&1 &\n"
        "repro serve --port 1 | grep --count serving  # --not-a-flag\n"
        "```\n", encoding="utf-8")
    monkeypatch.setattr(check_links, "REPO", tmp_path)
    monkeypatch.setattr(check_links, "COMMAND_DOCS", [doc])
    assert check_links.check_command_lines() == [
        "README.md: `repro loadgen` is given `--chaos-p99-ms`, which "
        "`repro loadgen` does not accept",
        "README.md: `repro serve` is given `--inject`, which "
        "`repro serve` does not accept"]

"""The docs check's flag pass, both ways: every documented serve/loadgen
flag exists, and every flag those verbs register is documented."""

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
                      if "--crosscheck" not in action.option_strings]
    monkeypatch.setattr(check_links, "verb_parsers", lambda: parsers)
    assert check_links.check_flags() == [
        "docs/OPERATIONS.md documents `--crosscheck` under `repro serve`, "
        "which no verb of that heading accepts"]


def test_a_flag_the_table_lacks_fails_the_pass(check_links, monkeypatch):
    parsers = check_links.verb_parsers()
    parsers["loadgen"].add_argument("--undocumented-knob", type=int)
    monkeypatch.setattr(check_links, "verb_parsers", lambda: parsers)
    assert check_links.check_flags() == [
        "`repro loadgen` accepts `--undocumented-knob`, which its flag table "
        "in docs/OPERATIONS.md does not document"]

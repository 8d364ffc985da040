"""CLI registration: serve/loadgen subcommands + error listing."""

from __future__ import annotations

import json

import pytest

from repro.harness.cli import build_parser, main
from repro.serve import ServeConfig, start_in_thread

from .conftest import ARCH_NAME


def test_serve_and_loadgen_are_registered():
    parser = build_parser()
    assert "serve" in parser.commands
    assert "loadgen" in parser.commands
    args = parser.parse_args(["serve", "--port", "0", "--rate", "0"])
    assert args.port == 0 and args.rate == 0.0
    args = parser.parse_args(["loadgen", "--requests", "5"])
    assert args.requests == 5


def test_serve_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["serve", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_unknown_command_lists_registered_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "registered commands:" in err
    for name in ("advise", "check", "loadgen", "serve", "sweep"):
        assert name in err


def test_loadgen_cli_against_live_daemon(advisor, corpus, tmp_path,
                                         capsys):
    json_path = tmp_path / "loadgen.json"
    config = ServeConfig(port=0, rate=None)
    with start_in_thread(advisor, corpus, config) as handle:
        rc = main(["loadgen", "--port", str(handle.port),
                   "--matrices", ",".join(e.name for e in corpus),
                   "--requests", "20", "--rate", "500",
                   "--arch", ARCH_NAME, "--seed", "3",
                   "--json", str(json_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "loadgen: 20 request(s)" in out
    report = json.loads(json_path.read_text())
    assert report["ok"] + sum(report["rejected"].values()) == 20
    assert report["transport_failures"] == 0


def test_loadgen_cli_reports_unreachable_daemon(capsys):
    rc = main(["loadgen", "--port", "1", "--matrices", "m",
               "--requests", "2", "--rate", "1000",
               "--timeout", "0.5"])
    assert rc == 1
    assert "transport_failures=2" in capsys.readouterr().out

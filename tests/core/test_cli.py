"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list():
    code, text = run_cli("list")
    assert code == 0
    assert "blackscholes" in text
    assert "radiosity" in text
    assert text.count("\n") >= 18


def test_check_deterministic_app_exit_zero():
    code, text = run_cli("check", "volrend", "--runs", "4")
    assert code == 0
    assert "deterministic : True" in text


def test_check_ndet_app_exit_nonzero():
    code, text = run_cli("check", "canneal", "--runs", "4")
    assert code == 1
    assert "deterministic : False" in text
    assert "first NDet run" in text


def test_check_with_rounding_and_ignores():
    code, text = run_cli("check", "cholesky", "--runs", "4",
                         "--rounding", "default", "--ignores")
    assert code == 0


def test_check_hash_backend_flag():
    code, _ = run_cli("check", "volrend", "--runs", "4",
                      "--hash-backend", "python")
    assert code == 0
    from repro.core.hashing.kernels import has_numpy
    if has_numpy():
        code, _ = run_cli("check", "volrend", "--runs", "4",
                          "--hash-backend", "numpy")
        assert code == 0


def test_check_distributions_flag():
    code, text = run_cli("check", "volrend", "--runs", "4",
                         "--distributions")
    assert "deterministic)" in text


def test_characterize():
    code, text = run_cli("characterize", "volrend", "--runs", "4")
    assert code == 0
    assert "class: bit-by-bit" in text


def test_localize():
    code, text = run_cli("localize", "pbzip2", "--checkpoint", "0",
                         "--seed-a", "50", "--seed-b", "53")
    assert "differing words" in text


def test_table1_subset():
    code, text = run_cli("table1", "--runs", "4",
                         "--apps", "volrend", "fft")
    assert code == 0
    assert "volrend" in text and "fft" in text
    assert "Class (paper)" in text


def test_table2():
    code, text = run_cli("table2", "--runs", "6")
    assert code == 0
    assert "atomicity violation" in text


def test_fig5_custom_apps():
    code, text = run_cli("fig5", "--runs", "4", "--apps", "canneal")
    assert code == 0
    assert "canneal" in text and "D1" in text


def test_fig8():
    code, text = run_cli("fig8", "--runs", "4")
    assert code == 0
    assert "radix" in text


def test_unknown_app_rejected():
    code, _ = run_cli("check", "doom")
    assert code == 3  # usage error, not a traceback


def test_requires_command():
    code, _ = run_cli()
    assert code == 3


def test_races_benign_app():
    code, text = run_cli("races", "volrend", "--runs", "6")
    assert code == 0
    assert "benign" in text
    assert "write-write" in text


def test_races_race_free_app():
    code, text = run_cli("races", "fft", "--runs", "4")
    assert code == 0
    assert "0 race(s)" in text


def test_light64_no_comparable_classes_note():
    code, text = run_cli("light64", "canneal", "--runs", "4")
    assert "comparable schedule class" in text


def test_check_json():
    import json

    code, text = run_cli("check", "volrend", "--runs", "4", "--json")
    payload = json.loads(text)
    assert payload["program"] == "volrend"
    assert code == 0


def test_characterize_json():
    import json

    code, text = run_cli("characterize", "volrend", "--runs", "4", "--json")
    payload = json.loads(text)
    assert payload["det_class"] == "bit-by-bit"


def test_bless_and_verify_golden(tmp_path):
    path = str(tmp_path / "golden.json")
    code, text = run_cli("bless", "volrend", "--out", path)
    assert code == 0
    assert "blessed" in text
    code, text = run_cli("verify-golden", "volrend", "--baseline", path)
    assert code == 0
    assert "state-identical" in text


def test_verify_golden_flags_different_app(tmp_path):
    path = str(tmp_path / "golden.json")
    run_cli("bless", "fft", "--out", path)
    code, text = run_cli("verify-golden", "lu", "--baseline", path)
    assert code == 1


def test_check_telemetry_writes_jsonl(tmp_path):
    from repro.telemetry import load_events

    path = str(tmp_path / "t.jsonl")
    code, text = run_cli("check", "volrend", "--runs", "3",
                         "--telemetry", path)
    assert code == 0
    events = load_events(path)
    assert events[0]["t"] == "meta"
    run_spans = [e for e in events
                 if e["t"] == "span_end" and e["name"] == "run"]
    assert len(run_spans) == 3
    assert events[-1]["t"] == "metrics"


def test_stats_command_renders_profile(tmp_path):
    path = str(tmp_path / "t.jsonl")
    run_cli("check", "volrend", "--runs", "3", "--telemetry", path)
    code, text = run_cli("stats", path)
    assert code == 0
    assert "runs recorded: 3" in text
    assert "per-scheme hash updates" in text
    assert "hw" in text


def test_characterize_telemetry(tmp_path):
    from repro.telemetry import load_events

    path = str(tmp_path / "t.jsonl")
    code, text = run_cli("characterize", "volrend", "--runs", "4",
                         "--telemetry", path)
    assert code == 0
    events = load_events(path)
    run_spans = [e for e in events
                 if e["t"] == "span_end" and e["name"] == "run"]
    assert len(run_spans) == 4


def test_campaign_command_deterministic_app(tmp_path):
    path = str(tmp_path / "t.jsonl")
    code, text = run_cli("campaign", "volrend", "--runs", "3",
                         "--inputs", "small:image_words=16",
                         "large:image_words=64",
                         "--telemetry", path)
    assert code == 0
    assert "campaign over 2 input(s)" in text
    from repro.telemetry import load_events

    events = load_events(path)
    progress = [e for e in events if e["t"] == "event"
                and e.get("name") == "progress" and e.get("kind") == "input"]
    assert len(progress) == 2


def test_campaign_command_flags_buggy_input():
    code, text = run_cli("campaign", "streamcluster", "--runs", "4",
                         "--inputs", "dev:input_size=dev,buggy=true")
    assert code == 1
    assert "NONDETERMINISTIC" in text


def test_campaign_default_input():
    code, text = run_cli("campaign", "volrend", "--runs", "3")
    assert code == 0
    assert "default" in text


def test_campaign_bad_input_spec_rejected():
    code, _ = run_cli("campaign", "volrend", "--runs", "3",
                      "--inputs", "bad:novalue")
    assert code == 3


def test_campaign_unknown_input_key_is_an_infra_failure(capsys):
    code, text = run_cli("campaign", "streamcluster", "--runs", "3",
                         "--inputs", "dev:bogus=1", "prod")
    assert code == 2  # EXIT_INFRA, not the nondeterministic verdict's 1
    assert "infrastructure failures: dev" in text
    assert "'bogus'" in text and "accepted: n_workers" in text
    assert "prod         deterministic" in text
    assert "Traceback" not in capsys.readouterr().err


def test_check_workers_matches_serial():
    code_s, text_s = run_cli("check", "fft", "--runs", "4", "--json")
    code_p, text_p = run_cli("check", "fft", "--runs", "4", "--json",
                             "--workers", "2")
    assert code_s == code_p == 0
    import json

    serial = json.loads(text_s)
    parallel = json.loads(text_p)
    assert serial.pop("workers") == 1
    assert parallel.pop("workers") == 2
    assert serial == parallel


def test_check_workers_rejects_bad_values():
    for bad in ("0", "-3", "nope"):
        code, _ = run_cli("check", "fft", "--runs", "4", "--workers", bad)
        assert code == 3


def test_campaign_workers_with_journal(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    code, text = run_cli("campaign", "volrend", "--runs", "3",
                         "--workers", "2",
                         "--inputs", "small:image_words=16",
                         "large:image_words=64",
                         "--journal", path)
    assert code == 0
    assert "campaign over 2 input(s)" in text
    code, text = run_cli("campaign", "volrend", "--runs", "3",
                         "--workers", "2",
                         "--inputs", "small:image_words=16",
                         "large:image_words=64",
                         "--resume", path)
    assert code == 0
    assert "resumed from journal: small, large" in text


# -- observability plane (ISSUE 6) -------------------------------------------------


def test_stats_missing_file_exits_infra(capsys):
    code, text = run_cli("stats", "/nonexistent/telemetry.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # exactly one diagnostic line
    assert "cannot read" in err


def test_stats_empty_file_exits_infra(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, _ = run_cli("stats", str(path))
    assert code == 2
    assert "no events" in capsys.readouterr().err


def test_stats_all_garbage_exits_infra(tmp_path, capsys):
    path = tmp_path / "garbage.jsonl"
    path.write_text("not json\nstill not json\n")
    code, _ = run_cli("stats", str(path))
    assert code == 2
    assert "every line unparseable" in capsys.readouterr().err


def test_stats_torn_tail_warns_but_renders(tmp_path, capsys):
    jsonl = str(tmp_path / "t.jsonl")
    run_cli("check", "volrend", "--runs", "3", "--telemetry", jsonl)
    with open(jsonl, "a") as handle:
        handle.write('{"v": 2, "t": "ev')  # simulate a mid-write kill
    code, text = run_cli("stats", jsonl)
    assert code == 0
    assert "runs recorded: 3" in text
    assert "skipped 1 unparseable line(s)" in text
    assert "skipped 1 unparseable line" in capsys.readouterr().err


def test_stats_export_chrome_trace(tmp_path):
    import json

    jsonl = str(tmp_path / "t.jsonl")
    run_cli("check", "volrend", "--runs", "3", "--telemetry", jsonl)
    code, text = run_cli("stats", jsonl, "--export", "chrome-trace")
    assert code == 0
    doc = json.loads(text)
    assert {e["name"] for e in doc["traceEvents"]} >= {"run", "check_session"}

    out = str(tmp_path / "trace.json")
    code, _ = run_cli("stats", jsonl, "--export", "chrome-trace",
                      "--out", out)
    assert code == 0
    with open(out) as handle:
        assert json.load(handle)["displayTimeUnit"] == "ms"


def test_check_progress_flag_renders_to_stderr(capsys):
    code, text = run_cli("check", "volrend", "--runs", "3", "--progress")
    assert code == 0
    err = capsys.readouterr().err
    assert "repro live" in err
    assert "runs 3/3" in err
    assert "volrend" in err
    # The stdout report is untouched by the console.
    assert "deterministic : True" in text
    assert "repro live" not in text


def test_check_metrics_port_zero_binds_ephemeral(capsys):
    code, _ = run_cli("check", "volrend", "--runs", "3",
                      "--metrics-port", "0")
    assert code == 0
    assert "metrics: http://127.0.0.1:" in capsys.readouterr().err


def test_campaign_accepts_observability_flags(tmp_path, capsys):
    jsonl = str(tmp_path / "t.jsonl")
    code, _ = run_cli("campaign", "volrend", "--runs", "3",
                      "--progress", "--metrics-port", "0",
                      "--telemetry", jsonl)
    assert code == 0
    err = capsys.readouterr().err
    assert "metrics: http://127.0.0.1:" in err
    assert "repro live" in err
    from repro.telemetry import load_events
    assert load_events(jsonl)[0]["t"] == "meta"


def _argparse_exit(capsys, *argv):
    """Parse *argv* with the CLI's parser; return (exit code, stderr)."""
    from repro.cli import _build_parser

    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_removed_socket_executor_is_an_invalid_choice(capsys):
    code, err = _argparse_exit(capsys, "check", "fft", "--executor", "socket")
    assert code == 2
    assert "invalid choice: 'socket'" in err
    # main() maps argparse's usage exit onto the CLI's usage code.
    assert run_cli("check", "fft", "--executor", "socket")[0] == 3


@pytest.mark.parametrize("command", ["serve", "worker", "submit"])
def test_removed_fleet_subcommands_are_rejected(capsys, command):
    code, err = _argparse_exit(capsys, command, "--help")
    assert code == 2
    assert f"invalid choice: '{command}'" in err


def test_list_registries_names_exactly_two_executors():
    code, text = run_cli("list", "--registries")
    assert code == 0
    line, = [row for row in text.splitlines() if row.startswith("executors")]
    assert line.split(None, 1)[1] == "serial, process-pool"

"""Tests for the figure-regeneration CLI."""

import pytest

from repro.cli import build_parser, main

FIGURES = ("fig4", "case2", "fig11", "fig12", "fig16", "resilience",
           "scale")


def test_list_prints_all_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in FIGURES + ("tables", "overhead", "trace", "faults"):
        assert f"  {name} " in out


def test_no_command_defaults_to_list(capsys):
    assert main([]) == 0
    assert "available figures" in capsys.readouterr().out


def test_parser_accepts_duration_override():
    args = build_parser().parse_args(["fig4", "--duration", "0.005"])
    assert args.duration == 0.005
    assert args.command == "fig4"


def test_tables_command_runs(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "Table 4" in out


def test_overhead_command_runs(capsys):
    assert main(["overhead"]) == 0
    assert "1.25" in capsys.readouterr().out  # the saturation plateau


def test_fig4_command_tiny_run(capsys):
    assert main(["fig4", "--duration", "0.004", "--degrees", "2",
                 "--schemes", "ufab"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out and "ufab" in out


def test_unknown_command_rejected():
    for name in ("nope", "bench"):  # bench: retired with its reports
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([name])
        assert exc.value.code == 2


def test_every_figure_command_accepts_jobs():
    parser = build_parser()
    for name in FIGURES + ("tables", "overhead"):
        args = parser.parse_args([name, "--jobs", "3", "--no-cache"])
        assert args.jobs == 3 and args.no_cache


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2_before_any_cell_runs(jobs, capsys, tmp_path,
                                                     monkeypatch):
    """``--jobs -3`` used to run the grid serially and exit 0."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["fig11", "--duration", "0.004", "--schemes", "ufab",
              "--jobs", jobs, "--no-cache"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(
        f"error: argument --jobs: must be at least 1, got {jobs}")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("env", ["abc", "0", "-2"])
def test_malformed_repro_jobs_is_a_usage_error(env, capsys, tmp_path,
                                               monkeypatch):
    """``REPRO_JOBS=abc`` used to run the grid serially and exit 0; it is
    ``--jobs``' default, so it is checked like the flag (exit 2)."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_JOBS", env)
    with pytest.raises(SystemExit) as exc:
        main(["fig11", "--duration", "0.004", "--schemes", "ufab", "--no-cache"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument --jobs:" in err.splitlines()[-1]
    assert not list(tmp_path.iterdir())
    # A valid value is the default; the flag still overrides it.
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert build_parser().parse_args(["fig11"]).jobs == 2
    assert build_parser().parse_args(["fig11", "--jobs", "3"]).jobs == 3


def test_fig4_parallel_matches_serial(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["fig4", "--duration", "0.004", "--degrees", "2",
            "--schemes", "ufab", "--no-cache"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial


# ----------------------------------------------------------------------
# Shared option parents: faults + observability on every grid command
# ----------------------------------------------------------------------

def test_every_grid_command_accepts_shared_options():
    parser = build_parser()
    for name in FIGURES:
        args = parser.parse_args([
            name, "--jobs", "2", "--no-cache", "--cache-dir", "/tmp/c",
            "--trace", "t.jsonl", "--metrics", "m.json",
            "--faults", "probe_loss:0.1",
        ])
        assert args.jobs == 2 and args.no_cache
        assert args.cache_dir == "/tmp/c"
        assert args.trace == "t.jsonl" and args.metrics == "m.json"
        assert args.faults == "probe_loss:0.1"


def test_faults_command_prints_grammar(capsys):
    assert main(["faults"]) == 0
    out = capsys.readouterr().out
    assert "probe_loss" in out and "semicolon-separated" in out


def test_faults_command_validates_spec(capsys):
    assert main(["faults", "--spec",
                 "probe_loss:0.2@1ms-5ms; core_reset:Core1@2ms"]) == 0
    out = capsys.readouterr().out
    assert "ok: 2 events" in out
    assert "probe_loss" in out and "core_reset" in out


def test_faults_command_rejects_bad_spec(capsys):
    assert main(["faults", "--spec", "probe_loss:banana"]) == 2
    assert "probe_loss" in capsys.readouterr().err


def test_grid_command_rejects_bad_faults_spec(capsys):
    assert main(["fig4", "--duration", "0.004", "--faults", "nope:1"]) == 2
    assert "nope" in capsys.readouterr().err


def test_fig4_with_faults_tiny_run(capsys):
    assert main(["fig4", "--duration", "0.004", "--degrees", "2",
                 "--schemes", "ufab", "--no-cache",
                 "--faults", "probe_loss:0.3"]) == 0
    assert "Figure 4" in capsys.readouterr().out


def test_resilience_command_tiny_run(capsys):
    assert main(["resilience", "--duration", "0.006", "--schemes", "ufab",
                 "--loss-rates", "0", "0.4", "--mtbfs", "--no-cache",
                 "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "ufab" in out and "loss" in out


def test_trace_accepts_faults(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "fig11", "--scheme", "ufab",
                 "--duration", "0.004", "--faults", "probe_loss:0.5"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    trace = (tmp_path / "TRACE_fig11.jsonl").read_text()
    assert "faults.probe_drop" in trace


def test_scale_command_tiny_run(capsys):
    assert main(["scale", "--k", "4", "--churn", "low", "--schemes", "ufab",
                 "--duration", "0.004", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Cluster-scale churn sweep" in out and "ufab" in out


# ----------------------------------------------------------------------
# Flags come from the spec's axes; retired options are rejected
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["case2", "--schemes", "ufab"],        # no schemes axis
    ["fig11", "--degrees", "2"],           # no degrees axis
    ["tables", "--degrees", "2"],
    ["overhead", "--schemes", "ufab"],
    ["scale", "--verify-solver"],          # retired with REPRO_SOLVER
], ids=lambda argv: " ".join(argv))
def test_flags_without_an_axis_or_subject_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,complaint", [
    (["fig12", "--duration", "nan", "--schemes", "ufab"], "duration"),
    (["fig11", "--duration", "-1"], "duration"),
    (["fig11", "--duration", "0"], "duration"),
    (["fig11", "--schemes"], "no values for schemes"),
    (["trace", "fig11", "--duration", "-1"], "duration"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_malformed_grid_exits_2_before_any_cell_runs(
        argv, complaint, capsys, tmp_path, monkeypatch):
    """A duration that is not positive and finite, or an axis given no
    values, used to reach the simulator: ``nan`` never terminated,
    ``-1`` failed inside a cell, ``0`` and an empty axis printed a
    meaningless table and exited 0."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert complaint in err
    assert not list(tmp_path.iterdir())


# Ids keep their place in the grid list these cases were numbered in.
@pytest.mark.parametrize("experiment,scheme,labels", [
    pytest.param("ablations", "ufab", ("coverage=1", "eta=0.95"),
                 id="ablations-ufab-labels1"),
    pytest.param("case2", "pwc", ("pwc@200us", "pwc@36us", "ufab"),
                 id="case2-pwc-labels2"),
])
def test_trace_unknown_scheme_exits_2_listing_cells(
        experiment, scheme, labels, capsys, tmp_path, monkeypatch):
    """``trace --scheme X`` must not fall back to the first cell when no
    cell is labelled X."""
    monkeypatch.chdir(tmp_path)
    assert main(["trace", experiment, "--scheme", scheme,
                 "--duration", "0.004"]) == 2
    err = capsys.readouterr().err
    assert f"no cell labelled {scheme!r}" in err
    for label in labels:
        assert label in err
    assert not list(tmp_path.iterdir())  # nothing ran, nothing written


def test_trace_unregistered_scheme_is_a_one_line_error(capsys, tmp_path, monkeypatch):
    """On a grid with a schemes axis the name goes to the registry:
    an unknown one is a usage error, not a traceback from the cell."""
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "fig11", "--scheme", "qq", "--duration", "0.004"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown scheme 'qq' (registered: ufab, ")
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())  # nothing ran, nothing written


def test_trace_picks_cell_by_label_on_irregular_grids(capsys, tmp_path,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "case2", "--scheme", "pwc@36us",
                 "--duration", "0.004"]) == 0
    assert "scheme=pwc@36us" in capsys.readouterr().out

import pytest

from rdars import cli
from rdars.cli import build_parser, main, parse_sweep

TINY_SCENARIO = """\
# two-user toy layout for CLI round trips
n_tx = 4
n_elems = 16
n_connected = 4
n_ues = 2
conv_threshold = 1e-3
max_outer_iters = 60
bs_pos = 0, 0, 15
rdars_pos = 50, 30, 15
ue_center = 100, 0, 1.5
ue_radius = 20
"""


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SCENARIO, encoding="utf-8")
    return str(path)


def test_parse_sweep_inclusive_grid():
    assert parse_sweep("ptot_dbm=10:20:5") == (10.0, 15.0, 20.0)
    assert parse_sweep("ptot_dbm=30:30:1") == (30.0,)
    assert parse_sweep("ptot_dbm=0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.mark.parametrize("text", [
    "ptot_dbm",
    "power=1:2:1",
    "ptot_dbm=1:2",
    "ptot_dbm=1:2:0",
    "ptot_dbm=5:1:1",
    "ptot_dbm=a:b:c",
    "ptot_dbm=0:inf:10",
    "ptot_dbm=-inf:10:5",
    "ptot_dbm=nan:10:5",
    "ptot_dbm=0:10:nan",
])
def test_parse_sweep_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_sweep(text)


@pytest.mark.parametrize("text, slot", [
    ("ptot_dbm=-inf:10:5", "start"),
    ("ptot_dbm=0:inf:10", "stop"),
    ("ptot_dbm=0:10:inf", "step"),
    ("ptot_dbm=0:nan:5", "stop"),
])
def test_parse_sweep_names_non_finite_slot(text, slot):
    with pytest.raises(ValueError, match=f"sweep {slot} must be finite"):
        parse_sweep(text)


def test_validate_command_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4
    assert all(line.startswith("[  ok]") for line in out)


def test_run_command_writes_csv(tiny_scenario, tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["run", "--scenario", tiny_scenario,
                 "--algorithms", "COMPACT_ETA1", "--trials", "2",
                 "--seed", "7", "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("trial,sweep_value,algorithm")
    assert len(lines) == 3
    assert all(line.endswith(",ok") for line in lines[1:])


def test_run_command_counts_only_failed_rows(tmp_path, capsys):
    path = tmp_path / "capped.cfg"
    path.write_text(TINY_SCENARIO.replace("conv_threshold = 1e-3",
                                          "conv_threshold = 1e-12")
                    .replace("max_outer_iters = 60", "max_outer_iters = 1"),
                    encoding="utf-8")
    code = main(["run", "--scenario", str(path), "--trials", "2",
                 "--algorithms", "COMPACT_ETA1,SINGLE_UE_CLOSED"])
    assert code == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == \
        ["unconverged"] * 2 + ["failed:ValueError"] * 2
    # the count, then each distinct (algorithm, exception text) once
    assert captured.err == ("2 of 4 rows failed\n"
                            "  SINGLE_UE_CLOSED: ValueError: single-UE "
                            "solution needs K=1, got K=2\n")


def test_run_command_stdout_and_sweep(tiny_scenario, capsys):
    code = main(["run", "--scenario", tiny_scenario,
                 "--algorithms", "TWO_UE_PROP1", "--trials", "1",
                 "--sweep", "ptot_dbm=10:20:10"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # header plus one row per sweep point
    assert lines[1].split(",")[1] == "10"
    assert lines[2].split(",")[1] == "20"


def test_analyze_command_prints_table(tiny_scenario, capsys):
    assert main(["analyze", "--scenario", tiny_scenario, "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("power 30 dBm")
    assert lines[1].split() == ["eta", "eps", "eps_bar", "sum_rate_bits"]
    assert [ln.split()[0] for ln in lines[2:]] == ["1", "2", "3", "4", "5"]


def test_missing_scenario_file_is_reported(capsys):
    assert main(["run", "--scenario", "/no/such/file.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_fails_before_the_campaign_runs(
        tiny_scenario, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the campaign ran before the output was opened")

    monkeypatch.setattr(cli, "run_campaign", never)
    code = main(["run", "--scenario", tiny_scenario, "--trials", "1",
                 "--output", str(tmp_path / "missing" / "rows.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_algorithm_is_reported(tiny_scenario, capsys):
    code = main(["run", "--scenario", tiny_scenario,
                 "--algorithms", "NO_SUCH_ALG", "--trials", "1"])
    assert code == 2
    assert "unknown algorithms" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "ptot_dbm=0:10:1e-300",
    "ptot_dbm=-1e308:1e308:1",
    "ptot_dbm=0:10000:1",
])
def test_parse_sweep_rejects_oversize_before_allocating(text):
    """A sweep of more than 10000 points fails with its reason, before any
    point is made (the first would ask for about 1e301 points)."""
    with pytest.raises(ValueError, match="more than the 10000 points"):
        parse_sweep(text)


def test_oversize_sweep_is_reported(tiny_scenario, capsys):
    code = main(["run", "--scenario", tiny_scenario, "--sweep",
                 "ptot_dbm=0:10:1e-300"])
    assert code == 2
    assert "10000 points" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["ptot_dbm=4000:4000:1",
                                   "ptot_dbm=-4000:-4000:1"])
def test_sweep_power_out_of_float_range_is_reported(tiny_scenario, capsys,
                                                    monkeypatch, sweep):
    """4000 dBm overflows a float in watts and -4000 dBm underflows to 0 W;
    both fail with the value named before any trial runs."""
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("rdars.harness._run_trial_rows", no_trial)
    code = main(["run", "--scenario", tiny_scenario, "--trials", "1",
                 "--sweep", sweep])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: sweep value ")
    assert sweep.split(":")[1] + ".0 dBm" in err


def test_bad_sweep_is_reported(tiny_scenario, capsys):
    code = main(["run", "--scenario", tiny_scenario, "--sweep", "watts=1:2:1"])
    assert code == 2
    assert "sweep" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_nonpositive_jobs_is_reported(tiny_scenario, capsys, jobs):
    code = main(["run", "--scenario", tiny_scenario, "--trials", "1",
                 "--jobs", jobs])
    assert code == 2
    assert f"--jobs must be at least 1 (1 runs in-process), got {jobs}" \
        in capsys.readouterr().err


def test_subcommand_is_required():
    with pytest.raises(SystemExit):
        main([])


def test_parser_exposes_three_commands():
    parser = build_parser()
    args = parser.parse_args(["run", "--trials", "3"])
    assert args.command == "run"
    assert args.trials == 3
    assert parser.parse_args(["analyze"]).command == "analyze"
    assert parser.parse_args(["validate", "--seed", "9"]).seed == 9

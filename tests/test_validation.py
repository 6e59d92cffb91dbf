import pytest

from rdars import validation
from rdars.validation import (CheckResult, check_alternating_solver,
                              check_correlation, check_phase_search,
                              check_single_ue, run_checks)


def test_individual_checks_pass():
    assert check_single_ue(0).passed
    assert check_correlation(1).passed
    assert check_alternating_solver(2).passed
    assert check_phase_search(3).passed


def test_run_checks_reports_all_four():
    results = run_checks(seed=0)
    names = [r.name for r in results]
    assert names == ["single_ue_closed_form", "two_ue_correlation",
                     "alternating_solver", "phase_power_iteration"]
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results)
    assert all(r.detail for r in results)


@pytest.mark.parametrize("seed", [5, 17])
def test_checks_hold_at_other_seeds(seed):
    assert all(r.passed for r in run_checks(seed=seed))


def test_single_ue_check_builds_channels_once_per_drop(monkeypatch):
    builds = []
    build = validation.los_channels

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(validation, "los_channels", counting)
    assert check_single_ue(0).passed
    assert len(builds) == 5

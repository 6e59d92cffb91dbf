import math
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rdars.scenario import (Scenario, ScenarioError, SystemConfig,
                            default_scenario, derive_geometry, load_scenario,
                            parse_scenario_text, path_gain, scenario_geometry)

from helpers import BS, CENTER, SURFACE


# Reference values computed by hand from sqrt(10^(-c0/10) * dist^(-exp)).
PG_CASES = [
    (1.0, 61.4, 2.0, 0.0008511380382023768),
    (10.0, 61.4, 2.0, 8.511380382023768e-05),
    (10.0, 61.4, 2.8, 3.3884415613920276e-05),
]


@pytest.mark.parametrize("dist,c0,ex,expected", PG_CASES)
def test_path_gain_reference_values(dist, c0, ex, expected):
    assert path_gain(dist, c0, ex) == pytest.approx(expected, rel=1e-14)


def test_path_gain_rejects_near_field_and_bad_exponent():
    with pytest.raises(ValueError):
        path_gain(0.5, 61.4, 2.0)
    with pytest.raises(ValueError):
        path_gain(5.0, 61.4, 0.0)


@given(st.floats(1.0, 1e4), st.floats(1.001, 1e4),
       st.floats(0.0, 80.0), st.floats(0.5, 4.0))
def test_path_gain_monotone_and_scaling(d1, factor, c0, ex):
    d2 = d1 * factor
    g1, g2 = path_gain(d1, c0, ex), path_gain(d2, c0, ex)
    assert g2 < g1
    assert g1 ** 2 == pytest.approx(10.0 ** (-c0 / 10.0) * d1 ** (-ex),
                                    rel=1e-12)


def test_config_derives_wavelength_and_spacing():
    cfg = SystemConfig()
    assert cfg.wavelength == pytest.approx(299792458.0 / 28e9, rel=1e-15)
    assert cfg.spacing == pytest.approx(cfg.wavelength / 2.0, rel=1e-15)
    custom = SystemConfig(spacing=0.004)
    assert custom.spacing == 0.004


def test_config_rejects_inconsistent_wavelength():
    with pytest.raises(TypeError):
        SystemConfig(carrier_freq=28e9, wavelength=0.02)
    with pytest.raises(ScenarioError):
        parse_scenario_text("carrier_freq = 28e9\nwavelength = 0.02\n")


def test_config_replace_carrier_rederives_wavelength():
    base = SystemConfig()
    cfg = replace(base, carrier_freq=3.5e9)
    assert cfg.wavelength == 299792458.0 / 3.5e9
    assert cfg.spacing == base.spacing


@pytest.mark.parametrize("kwargs", [
    dict(n_elems=0),
    dict(n_connected=0),
    dict(n_connected=200),      # more connected than elements
    dict(n_ues=0),
    dict(n_tx=0),
    dict(total_power=0.0),
    dict(noise_power=0.0),
    dict(carrier_freq=-1.0),
    dict(conv_threshold=0.0),
    dict(max_outer_iters=0),
    dict(pathloss_exp_bs_rdars=0.0),
    dict(spacing=-1.0),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


@pytest.mark.parametrize("name, value", [
    ("carrier_freq", math.inf),
    ("spacing", math.nan),
    ("total_power", math.inf),
    ("noise_power", math.nan),
    ("ref_pathloss_db", -math.inf),
    ("pathloss_exp_bs_rdars", math.nan),
    ("pathloss_exp_rdars_ue", math.inf),
    ("conv_threshold", math.inf),
])
def test_config_rejects_non_finite_values(name, value):
    with pytest.raises(ScenarioError, match=f"^{name} must be finite"):
        SystemConfig(**{name: value})


def test_derive_geometry_default_layout():
    cfg = SystemConfig(n_ues=1)
    geo = derive_geometry(BS, SURFACE, np.array([[95.0, 8.0, 1.5]]), cfg)
    # distances 58.309518948453004 and 51.87725898695882, checked by hand
    assert geo.kappa_br == pytest.approx(1.4596896931267826e-05, rel=1e-12)
    assert geo.kappa_ru[0] == pytest.approx(3.380898790170254e-06, rel=1e-12)
    assert geo.u_br_aoa == pytest.approx(0.8574929257125442, rel=1e-12)
    assert -1.0 <= geo.u_ru_aod[0] <= 1.0
    assert geo.n_ues == 1


def test_derive_geometry_rejects_coincident_endpoints():
    """Coincident BS and RDARS positions, or a UE at the RDARS position,
    are rejected before a direction is divided by the zero distance, so no
    RuntimeWarning comes first."""
    cfg = SystemConfig(n_ues=1)
    with pytest.raises(ScenarioError):
        derive_geometry(BS, BS, np.array([[95.0, 8.0, 1.5]]), cfg)
    with pytest.raises(ScenarioError, match="UE and the RDARS position"):
        derive_geometry(BS, SURFACE, np.array([SURFACE, (60.0, 30.0, 15.0)]),
                        SystemConfig(n_ues=2))


def test_derive_geometry_ue_count_mismatch():
    cfg = SystemConfig(n_ues=3)
    with pytest.raises(ValueError):
        derive_geometry(BS, SURFACE, np.array([[95.0, 8.0, 1.5]]), cfg)


def test_parse_scenario_roundtrip():
    text = textwrap.dedent("""
        # comment line
        n_tx = 4
        n_elems = 16
        n_connected = 4
        n_ues = 2
        total_power = 2.5
        ue_radius = 7.0
        bs_pos = 0, 0, 10
        ue_pos = 90, 1, 1.5 ; 92, -3, 1.5
    """)
    sc = parse_scenario_text(text)
    assert sc.config.n_tx == 4
    assert sc.config.total_power == 2.5
    assert sc.ue_radius == 7.0
    assert sc.bs_pos == (0.0, 0.0, 10.0)
    assert np.asarray(sc.ue_pos).shape == (2, 3)


@pytest.mark.parametrize("line", [
    "nonsense = 3",
    "n_tx 4",
    "n_tx = x",
    "bs_pos = 1 2",
    "bisection_tol = 1e-9",     # a retired SystemConfig field
    "shift_nu = 0.0",           # a retired SystemConfig field
    "max_inner_iters = 500",    # a retired SystemConfig field
    "wavelength = 0.0107",      # derived from carrier_freq, not settable
    "carrier_freq = nan",
    "total_power = nan",
    "noise_power = inf",
    "conv_threshold = nan",
    "spacing = inf",
    "ref_pathloss_db = nan",
    "bs_pos = nan,0,15",
    "ue_center = inf,0,1.5",
    "ue_pos = nan,0,1.5",
    "ue_pos =",
    "ue_pos = ;",
    "ue_radius = nan",
    "ue_radius = inf",
    "ue_radius = -5",
])
def test_parse_scenario_rejects_bad_lines(line):
    with pytest.raises(ScenarioError):
        parse_scenario_text(line + "\n")


@pytest.mark.parametrize("name, value", [
    ("bs_pos", (math.nan, 0.0, 15.0)),
    ("rdars_pos", (50.0, math.inf, 15.0)),
    ("ue_center", (100.0, 0.0, -math.inf)),
    ("ue_pos", ((95.0, 8.0, 1.5), (math.nan, 0.0, 1.5))),
    ("ue_pos", ()),
    ("ue_radius", math.nan),
    ("ue_radius", math.inf),
    ("ue_radius", -5.0),
])
def test_scenario_rejects_bad_placement(name, value):
    with pytest.raises(ScenarioError, match=f"^{name} must be"):
        Scenario(config=SystemConfig(n_ues=2), **{name: value})


def test_parse_scenario_rejects_duplicates():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("n_tx = 4\nn_tx = 8\n")
    assert "line 2" in str(err.value)


def test_parse_scenario_reports_line_number():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("n_tx = 4\nbogus_key = 1\n")
    assert "line 2" in str(err.value)


def test_default_scenario_matches_baseline():
    sc = default_scenario()
    cfg = sc.config
    assert (cfg.n_tx, cfg.n_elems, cfg.n_connected, cfg.n_ues) == (32, 128, 20, 20)
    assert cfg.total_power == pytest.approx(1.0)
    assert cfg.noise_power == pytest.approx(7.244359600749892e-13, rel=1e-12)
    assert sc.rdars_pos == (50.0, 30.0, 15.0)
    assert sc.ue_radius == 20.0


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("n_ues = 2\nue_radius = 5\n")
    sc = load_scenario(path)
    assert sc.config.n_ues == 2
    assert sc.ue_radius == 5.0


def test_scenario_geometry_explicit_positions_skip_rng():
    ue = np.array([[95.0, 8.0, 1.5], [101.0, -4.0, 1.5]])
    sc = Scenario(config=SystemConfig(n_ues=2), ue_pos=ue)
    g1 = scenario_geometry(sc, np.random.default_rng(0))
    g2 = scenario_geometry(sc, np.random.default_rng(99))
    np.testing.assert_allclose(g1.ue_pos, g2.ue_pos)
    np.testing.assert_allclose(g1.ue_pos, ue)


def test_scenario_geometry_draws_inside_disk():
    sc = Scenario(config=SystemConfig(n_ues=5), ue_center=CENTER, ue_radius=3.0)
    geo = scenario_geometry(sc, np.random.default_rng(1))
    offsets = geo.ue_pos - np.asarray(CENTER)
    assert np.all(np.hypot(offsets[:, 0], offsets[:, 1]) <= 3.0 + 1e-12)
    assert np.all(geo.ue_pos[:, 2] == CENTER[2])


def test_scenario_geometry_ue_count_must_match_config():
    ue = np.array([[95.0, 8.0, 1.5]])
    sc = Scenario(config=SystemConfig(n_ues=2), ue_pos=ue)
    with pytest.raises(ValueError):
        scenario_geometry(sc, np.random.default_rng(0))

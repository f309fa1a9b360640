"""Unit tests for mixed-media link budgets and ring validation."""

import pytest

from fddilab import Violation
from fddilab.link_planner import (
    CONNECTOR_LOSS_DB,
    LinkSpec,
    MediaSpec,
    NotOpticalError,
    UnknownMediaError,
    WavelengthMismatchError,
    default_media_table,
    mixed_ends_check,
    parse_media_table,
    power_budget,
    rise_fall_check,
    validate_link,
    validate_ring,
)
from fddilab.mac_sim import RingConfig, validate_config


def test_power_budgets():
    assert power_budget("LCF") == 7.0
    assert power_budget("MF") == 11.0
    assert power_budget("LCF") < power_budget("MF")


def test_lcf_budget_derives_from_published_ranges():
    spec = default_media_table()["LCF"]
    assert spec.tx_power_dbm == (-22.0, -14.0)
    assert spec.rx_power_dbm == (-29.0, -14.0)
    assert spec.budget_db is None  # derived, not stored
    assert spec.tx_power_dbm[0] - spec.rx_power_dbm[0] == 7.0


def test_mf_budget_is_stored_constant():
    spec = default_media_table()["MF"]
    assert spec.budget_db == 11.0
    assert spec.tx_power_dbm[0] is None  # min transmit power unpublished


def test_power_budget_not_optical():
    for name in ("UTP", "STP_COAX", "SONET"):
        with pytest.raises(NotOpticalError):
            power_budget(name)


def test_unknown_media():
    with pytest.raises(UnknownMediaError):
        validate_link(LinkSpec("PLASTIC", 10))


@pytest.mark.parametrize("media,length,verdict", [
    ("LCF", 500, "pass"),
    ("LCF", 501, "fail"),
    ("MF", 2000, "pass"),
    ("MF", 2001, "fail"),
    ("UTP", 50, "pass"),
    ("UTP", 51, "fail"),
    ("STP_COAX", 100, "pass"),
    ("STP_COAX", 101, "fail"),
])
def test_length_boundaries(media, length, verdict):
    report = validate_link(LinkSpec(media, length))
    assert report.verdict == verdict
    if verdict == "fail":
        limit = default_media_table()[media].max_length_m
        assert Violation("LengthExceeded", f"{length} m > {limit:g} m") in report.violated_rules


def test_lcf_500m_loss_within_budget():
    report = validate_link(LinkSpec("LCF", 500))
    assert report.computed_loss_db == 1.0  # 2 dB/km x 0.5 km
    assert report.allowed_loss_db == 7.0
    assert report.margin_db == 6.0
    assert report.verdict == "pass"


def test_connector_losses_count_against_budget():
    # 0.3 dB per mated pair by default
    assert CONNECTOR_LOSS_DB == 0.3
    heavy = LinkSpec("LCF", 400, connector_losses_db=(CONNECTOR_LOSS_DB,) * 22)
    report = validate_link(heavy)
    assert report.verdict == "fail"
    assert report.violated_rules == (Violation("BudgetExceeded", "loss 7.4 dB > 7 dB"),)


def test_length_monotonicity_never_unfails():
    last_fail = False
    for length in range(100, 3200, 100):
        verdict = validate_link(LinkSpec("MF", length)).verdict
        if last_fail:
            assert verdict == "fail"
        last_fail = verdict == "fail"


def test_extra_loss_monotonicity():
    base = LinkSpec("LCF", 450, connector_losses_db=(3.0, 3.0))
    report = validate_link(base)
    more = LinkSpec("LCF", 450, connector_losses_db=(3.0, 3.0, 2.0))
    worse = validate_link(more)
    if report.verdict == "fail":
        assert worse.verdict == "fail"
    assert worse.margin_db < report.margin_db


def test_rejected_media_is_flagged():
    report = validate_link(LinkSpec("FIBER_200", 300))
    assert report.warnings == (
        Violation("NonStandardMedia", "FIBER_200 is a rejected alternative"),)


def test_mixed_ends_distance_rule():
    assert mixed_ends_check("LCF", "MF", 400).verdict == "pass"
    assert mixed_ends_check("MF", "LCF", 500).verdict == "pass"
    assert mixed_ends_check("LCF", "MF", 1000).violated_rules == (
        Violation("LengthExceeded", "1000 m > 500 m for this pairing"),)
    assert mixed_ends_check("MF", "MF", 2000).verdict == "pass"
    assert mixed_ends_check("MF", "MF", 2001).verdict == "fail"


def test_mixed_ends_allowed_loss_is_worst_direction():
    # LCF tx (-22) into MF rx (-31) gives 9 dB; the MF->LCF direction uses
    # the budget-implied MF minimum (-20) into LCF rx (-29), also 9 dB
    report = mixed_ends_check("LCF", "MF", 400)
    assert report.allowed_loss_db == 9.0
    assert mixed_ends_check("LCF", "LCF", 400).allowed_loss_db == 7.0
    assert mixed_ends_check("MF", "MF", 400).allowed_loss_db == 11.0


def test_mixed_ends_wavelength_guard():
    eight_fifty = MediaSpec(
        name="LCF", kind="optical", wavelength_nm=850,
        tx_power_dbm=(-22.0, -14.0), rx_power_dbm=(-29.0, -14.0),
        budget_db=None, max_length_m=500.0, attenuation_db_per_km=2.0,
        tx_rise_fall_ns=4.0, rx_rise_fall_tol_ns=4.5)
    with pytest.raises(WavelengthMismatchError):
        mixed_ends_check(eight_fifty, "MF", 100)
    with pytest.raises(NotOpticalError):
        mixed_ends_check("UTP", "MF", 100)


def test_mixed_ends_and_rise_fall_refuse_a_pairing_they_do_not_cover():
    # SMF is a 1300 nm optical device with no published ranges or edge rates
    with pytest.raises(ValueError) as err:
        mixed_ends_check("SMF", "MF", 100)
    assert str(err.value) == "pairing rule covers MF/LCF devices, not SMF"
    with pytest.raises(ValueError) as err:
        rise_fall_check("SMF", "MF")
    assert str(err.value) == "rise/fall figures unpublished for this pairing"


def test_rise_fall_pairings():
    assert rise_fall_check("LCF", "LCF") is True   # 4.0 ns into 4.5 ns
    assert rise_fall_check("MF", "MF") is True     # 3.5 ns into 5 ns
    assert rise_fall_check("MF", "LCF") is True
    assert rise_fall_check("LCF", "MF") is True
    slow_tx = MediaSpec(
        name="SLOW", kind="optical", wavelength_nm=1300,
        tx_power_dbm=(-22.0, -14.0), rx_power_dbm=(-29.0, -14.0),
        budget_db=None, max_length_m=500.0, attenuation_db_per_km=2.0,
        tx_rise_fall_ns=4.6, rx_rise_fall_tol_ns=4.5)
    assert rise_fall_check(slow_tx, "LCF") is False
    with pytest.raises(NotOpticalError):
        rise_fall_check("UTP", "MF")


def test_ring_validation_passes_mixed_media():
    links = [LinkSpec("LCF", 400), LinkSpec("MF", 1500),
             LinkSpec("UTP", 40), LinkSpec("STP_COAX", 90),
             LinkSpec("SONET", 20_000)]
    report = validate_ring(links, n_stations=10)
    assert report.verdict == "pass"
    assert [rep.verdict for rep in report.links] == ["pass"] * 5


def test_ring_total_cable_limit():
    links = [LinkSpec("SONET", 50_500_00)]  # 5050 km on one carrier span
    report = validate_ring(links, n_stations=10)
    assert report.verdict == "fail"
    assert report.ring_rules == (Violation("TotalCable", "5050 km > 100 km"),)


def test_ring_station_limit():
    report = validate_ring([LinkSpec("MF", 100)], n_stations=501)
    assert report.ring_rules == (Violation("StationCount", "501 stations > 500"),)


def test_ring_limits_read_alike_in_plan_and_simulate():
    plan = validate_ring([LinkSpec("SONET", 75_000.0)] * 2, n_stations=600)  # 150.0 km
    ring = RingConfig.make(600, 1000, 5000, total_cable_km=150.0)
    assert plan.ring_rules == (Violation("StationCount", "600 stations > 500"),
                               Violation("TotalCable", "150 km > 100 km"))
    assert validate_config(ring) == list(plan.ring_rules)


def test_ring_names_failing_link():
    links = [LinkSpec("LCF", 400), LinkSpec("LCF", 600), LinkSpec("MF", 100)]
    report = validate_ring(links, n_stations=4)
    assert report.verdict == "fail"
    assert [rep.verdict for rep in report.links] == ["pass", "fail", "pass"]


def test_media_table_round_trips_bit_exactly():
    table = default_media_table()

    def fmt(x):
        if x is None:
            return "-"
        if isinstance(x, float) and x == int(x):
            return str(int(x))
        return str(x)

    lines = ["version: 1"]
    for spec in table.values():
        lines.append(" ".join([
            spec.name, spec.kind, fmt(spec.wavelength_nm),
            fmt(spec.tx_power_dbm[0]), fmt(spec.tx_power_dbm[1]),
            fmt(spec.rx_power_dbm[0]), fmt(spec.rx_power_dbm[1]),
            fmt(spec.budget_db), fmt(spec.max_length_m),
            fmt(spec.attenuation_db_per_km), fmt(spec.tx_rise_fall_ns),
            fmt(spec.rx_rise_fall_tol_ns), spec.status]))
    assert parse_media_table("\n".join(lines)) == table


LCF_RECORD = "LCF optical 1300 -22 -14 -29 -14 - 500 2.0 4.0 4.5 standard"


@pytest.mark.parametrize("text,reason", [
    (LCF_RECORD.rsplit(" ", 1)[0],
     "bad media record (12 fields): 'LCF optical 1300 -22 -14 -29 -14 - 500 2.0 4.0 4.5'"),
    (f"{LCF_RECORD}\n{LCF_RECORD}", "duplicate media LCF"),
    (LCF_RECORD.replace("-22 -14", "-22 -30"), "LCF: power range max < min"),
], ids=["12-fields", "duplicate", "max-below-min"])
def test_parse_media_table_refuses_a_malformed_table(text, reason):
    with pytest.raises(ValueError) as err:
        parse_media_table(text)
    assert str(err.value) == reason


def test_link_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec("MF", 0)
    with pytest.raises(ValueError):
        LinkSpec("MF", 100, connector_losses_db=(-0.5,))

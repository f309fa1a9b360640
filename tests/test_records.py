"""Every public record is an immutable value: a ``typing.NamedTuple``
whose fields cannot be set, and which, rebuilt from its own fields, is
equal to itself and hashes the same."""

import inspect

import pytest

import fddilab
from fddilab import fddi2, link_planner, mac_sim, phy_codec, scrambler, spm

MODULES = (fddilab, fddi2, link_planner, mac_sim, phy_codec, scrambler, spm)


def _examples():
    table = phy_codec.default_code_table()
    link = link_planner.LinkSpec("LCF", 400.0, (0.3, 0.3))
    cfg = mac_sim.RingConfig.make(4, 10, 100, [5, 0, 0, 0])
    metrics = mac_sim.run_simulation(cfg, mac_sim.saturated_async_load([0, 2]), 500, seed=3,
                                     collect_trace=True)
    report = scrambler.longest_valid_match(table)
    return [
        fddilab.Violation("SyncOversubscribed", "detail"),
        fddi2.StationKind(1, fddi2.FDDI2),
        fddi2.allocate([fddi2.ISOCHRONOUS] * 16, [("voice", 100), ("video", 20)]),
        link_planner.default_media_table()["MF"],
        link,
        link_planner.validate_link(link),
        link_planner.validate_ring([link, link_planner.LinkSpec("MF", 3000.0)], 2),
        cfg,
        mac_sim.TrafficSource(1, mac_sim.SYNC, 2.5, 64, 3),
        mac_sim.saturated_async_load([0, 2]),
        metrics.trace[0],
        metrics,
        table.symbols[0],
        phy_codec.nrzi_encode([1, 0, 1, 1]),
        report.with_fragments,
        report,
        spm.sts_rates(3),
        spm.build_spe_layout(),
        spm.map_fddi([1, 0] * 40)[0],
    ]


EXAMPLES = _examples()


def test_every_public_record_class_has_an_example():
    records = {cls for module in MODULES for name, cls in vars(module).items()
               if inspect.isclass(cls) and issubclass(cls, tuple) and hasattr(cls, "_fields")
               and cls.__module__ == module.__name__ and not name.startswith("_")}
    assert records == {type(record) for record in EXAMPLES}


@pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__name__)
def test_a_record_is_an_immutable_value(record):
    for name in (*record._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    copy = type(record)(**record._asdict())
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)

"""Every public record is an immutable value: a namedtuple made by
``fddilab.record``, whose fields cannot be set, and which, rebuilt from
its own fields, is equal to itself and hashes the same. Every record
class keeps a docstring, and ``record`` refuses a field without a
default after one with a default, as ``typing.NamedTuple`` does."""

import inspect

import pytest

import fddilab
from fddilab import cli, fddi2, link_planner, mac_sim, phy_codec, scrambler, spm

MODULES = (fddilab, fddi2, link_planner, mac_sim, phy_codec, scrambler, spm)
RECORDS = {f"{module.__name__}.{name}": cls for module in (*MODULES, cli)
           for name, cls in vars(module).items()
           if inspect.isclass(cls) and issubclass(cls, tuple) and hasattr(cls, "_fields")
           and cls.__module__ == module.__name__}


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
    public = {cls for cls in RECORDS.values() if not cls.__name__.startswith("_")}
    assert public == {type(record) for record in EXAMPLES}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_record_class_has_a_docstring(name):
    assert RECORDS[name].__doc__


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError, match="Planted: a field without a default follows"):
        @fddilab.record
        class Planted:
            first: int = 0
            second: int


@pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__name__)
def test_a_record_is_an_immutable_value(record):
    for name in (*record._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    copy = type(record)(**record._asdict())
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)

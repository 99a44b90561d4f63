"""Every ``int`` field of every configuration refuses a float or a bool.

A float count or size used to pass construction and fail mid-run: a
bare ``TypeError`` from ``range()`` (``packet_bytes=1000.0``,
``sensor_count=60.0``, ``FaultSpec(count=2.5)``,
``BurstyConfig(sources=3.0)``), ``InvalidKautzString`` from a label
(``kautz_degree=2.0``), or no error at all (``seed=1.5``).
"""

import dataclasses

import pytest

from repro.chaos.spec import FaultSpec
from repro.errors import ConfigError
from repro.experiments.config import FaultConfig, ScenarioConfig
from repro.qos import BurstyConfig

#: Each configuration class with a valid instance to vary.
VALID = {
    ScenarioConfig: ScenarioConfig(),
    FaultConfig: FaultConfig(count=2),
    FaultSpec: FaultSpec(kind="rotation"),
    BurstyConfig: BurstyConfig(),
}

INT_FIELDS = [
    (cls, spec.name)
    for cls in VALID
    for spec in dataclasses.fields(cls)
    if spec.type in ("int", int)
]


def test_the_scan_finds_the_int_fields():
    assert {f"{cls.__name__}.{name}" for cls, name in INT_FIELDS} == {
        "ScenarioConfig.seed",
        "ScenarioConfig.sensor_count",
        "ScenarioConfig.packet_bytes",
        "ScenarioConfig.kautz_degree",
        "FaultConfig.count",
        "FaultSpec.count",
        "FaultSpec.rounds",
        "BurstyConfig.sources",
    }


@pytest.mark.parametrize(
    "cls,name", INT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in INT_FIELDS]
)
@pytest.mark.parametrize(
    "make",
    [float, lambda value: value + 0.5, bool],
    ids=["whole-float", "fraction", "bool"],
)
def test_an_int_field_refuses_a_float_or_a_bool(cls, name, make):
    value = make(getattr(VALID[cls], name))
    with pytest.raises(
        ConfigError, match=rf"{cls.__name__}\.{name} must be an int"
    ):
        dataclasses.replace(VALID[cls], **{name: value})

"""Name-based construction of DUT models."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Type, Union

from repro.rtl.bugs import InjectedBug
from repro.rtl.boom import BoomModel
from repro.rtl.cva6 import CVA6Model
from repro.rtl.harness import DutConfig, DutModel
from repro.rtl.rocket import RocketModel
from repro.sim.executor import ExecutorConfig

_DUT_CLASSES: Dict[str, Type[DutModel]] = {
    "cva6": CVA6Model,
    "rocket": RocketModel,
    "boom": BoomModel,
}


def available_duts() -> Tuple[str, ...]:
    """Names of the processor models shipped with the library."""
    return tuple(sorted(_DUT_CLASSES))


def dut_class(name: str) -> Type[DutModel]:
    """The model class of a DUT name, in any letter case; ``KeyError``
    for an unknown one."""
    key = name.lower()
    if key not in _DUT_CLASSES:
        raise KeyError(f"unknown DUT {name!r}; available: {available_duts()}")
    return _DUT_CLASSES[key]


def make_dut(name: str,
             config: Optional[DutConfig] = None,
             bugs: Union[Sequence[Union[str, InjectedBug]], None] = None,
             executor_config: Optional[ExecutorConfig] = None,
             coverage_model: str = "base") -> DutModel:
    """Instantiate a processor model by name (``"cva6"``, ``"rocket"``, ``"boom"``).

    ``bugs=None`` selects the paper's default bug set for that processor;
    pass an explicit (possibly empty) sequence to override.
    ``coverage_model="csr"`` additionally tracks CSR value-class
    transitions (see :mod:`repro.coverage.csr_transitions`).
    """
    return dut_class(name)(config=config, bugs=bugs,
                           executor_config=executor_config,
                           coverage_model=coverage_model)

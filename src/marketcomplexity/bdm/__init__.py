"""Algorithmic-probability complexity estimation: machine enumeration,
coding-theorem tables, and block decomposition."""

from .decompose import BdmResult, bdm
from .machines import (
    KNOWN_STEP_BOUNDS,
    OutputDistribution,
    default_step_bound,
    enumerate_machines,
    enumerate_range,
    machine_count,
    remove_checkpoints,
    shard_ranges,
)
from .table import CtmTable, check_d_max, ctm_from_frequency

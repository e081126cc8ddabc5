"""Ground reasoning workbench: saturation, trail-based search, lockstep checking."""

from . import core, harness, ordering, scl, simulation, superposition

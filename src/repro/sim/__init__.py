"""Platform simulation: machine-code execution, timing, energy, RAPL."""

from repro.sim.energy import EnergyModel, RaplCounter
from repro.sim.machine import DEFAULT_FUEL, MachineResult, Simulator
from repro.sim.pipeline import BranchPredictor, Cache, PipelineModel
from repro.sim.platform import Measurement, Platform, default_platforms
from repro.sim.tape import TapeSimulator, tape_cache_stats

__all__ = [
    "Simulator", "MachineResult", "TapeSimulator",
    "PipelineModel", "BranchPredictor", "Cache",
    "EnergyModel", "RaplCounter",
    "Platform", "Measurement", "default_platforms",
    "DEFAULT_FUEL",
    "tape_cache_stats",
]

"""Target platforms: the bundle of ISA + timing + energy + measurement
that the profiling layer (paper Fig. 2 box 1) runs programs on.
"""

from repro.backend.codegen import compile_module
from repro.backend.isa import get_isa
from repro.sim.energy import EnergyModel, RaplCounter
from repro.sim.pipeline import PipelineModel
from repro.sim.tape import TapeSimulator


class Measurement:
    """Dynamic features of one program execution on one platform.

    These are the paper's four PE metrics (execution time, energy,
    executed instructions, average power) plus code size.
    """

    def __init__(self, cycles, time_seconds, energy_pj, instructions,
                 code_size, dynamic_histogram, output, return_value):
        self.cycles = cycles
        self.time_seconds = time_seconds
        self.energy_pj = energy_pj
        self.instructions = instructions
        self.code_size = code_size
        self.dynamic_histogram = dynamic_histogram
        self.output = output
        self.return_value = return_value

    @property
    def average_power_watts(self):
        if self.time_seconds <= 0:
            return 0.0
        return (self.energy_pj * 1e-12) / self.time_seconds

    def metrics(self):
        """The PE's output metric vector, in a stable order."""
        return {
            "exec_time_us": self.time_seconds * 1e6,
            "energy_uj": self.energy_pj * 1e-6,
            "instructions": float(self.instructions),
            "avg_power_w": self.average_power_watts,
        }

    def __repr__(self):
        return (f"<Measurement cycles={self.cycles:.0f} "
                f"E={self.energy_pj:.0f}pJ instrs={self.instructions} "
                f"size={self.code_size}B>")


class Platform:
    """A named target platform with profiling support.

    ``x86`` uses RAPL-style noisy energy measurement; ``riscv`` is a
    deterministic simulator (HIPERSIM+McPAT in the paper).
    """

    METRIC_NAMES = ("exec_time_us", "energy_uj", "instructions",
                    "avg_power_w")

    def __init__(self, target, measurement_seed=0):
        self.target = target
        self.measurement_seed = measurement_seed
        self.isa = get_isa(target)
        self.energy_model = EnergyModel(self.isa)
        self.rapl = RaplCounter(measurement_seed) if target == "x86" \
            else None

    def compile(self, module):
        return compile_module(module, self.isa)

    def execute(self, program):
        """Run a compiled program on the tape simulator, returning a
        Measurement."""
        timing = PipelineModel(self.isa)
        result = TapeSimulator(program, self.isa, timing).run()
        energy = self.energy_model.total_energy_pj(
            result.dynamic_histogram, timing)
        if self.rapl is not None:
            energy = self.rapl.measure(energy)
        return Measurement(
            cycles=timing.cycles(),
            time_seconds=timing.seconds(),
            energy_pj=energy,
            instructions=result.instructions_executed,
            code_size=program.code_size,
            dynamic_histogram=result.dynamic_histogram,
            output=result.output,
            return_value=result.return_value,
        )

    def profile(self, module):
        """Compile + execute an IR module."""
        program = self.compile(module)
        return self.execute(program)

    def __repr__(self):
        return f"<Platform {self.target}>"


def default_platforms(measurement_seed=0):
    return {name: Platform(name, measurement_seed)
            for name in ("x86", "riscv")}

"""Host CPU model: a clock plus cycle accounting.

The paper reports all context-switch overheads in cycles of its 200 MHz
Pentium-Pro hosts, so the CPU model's job is (a) to turn modelled work into
simulated busy time and (b) to convert durations back into the cycle
counts the figures use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.core import Event, Simulator, Timeout
from repro.units import cycles_to_seconds, seconds_to_cycles


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a host processor."""

    clock_hz: float = 200e6  # Pentium-Pro 200 MHz, as in the paper
    name: str = "Pentium-Pro 200"

    def __post_init__(self):
        if self.clock_hz <= 0:
            raise ConfigError(f"clock_hz must be positive, got {self.clock_hz}")


class HostCPU:
    """One host processor.

    ``execute(cycles)`` / ``busy(seconds)`` account the work and return
    the busy duration for a simulated process to yield (sleep) on;
    ``busy_event`` wraps it in an event when callbacks are needed.  Total
    busy time is accumulated so experiments can report utilisation.  The model does not arbitrate
    between contenders — under gang scheduling exactly one user process
    runs per node, and the daemons only work while that process is
    stopped, so contention never arises in the modelled scenarios.
    """

    def __init__(self, sim: Simulator, spec: CpuSpec = CpuSpec()):
        self.sim = sim
        self.spec = spec
        self.busy_time: float = 0.0

    # -- conversions --------------------------------------------------------
    def cycles(self, seconds: float) -> int:
        """Duration -> whole cycle count at this CPU's clock."""
        return seconds_to_cycles(seconds, self.spec.clock_hz)

    def seconds(self, cycles: float) -> float:
        """Cycle count -> duration at this CPU's clock."""
        return cycles_to_seconds(cycles, self.spec.clock_hz)

    # -- work ---------------------------------------------------------------
    def busy(self, seconds: float) -> float:
        """Occupy the CPU for ``seconds``; returns the busy duration.

        Yield the return value from a simulated process to wait it out
        (the kernel sleeps on bare numbers); use :meth:`busy_event` when
        an actual Event is needed for callbacks or conditions.
        """
        if not (seconds >= 0):  # also rejects NaN
            raise ConfigError(
                f"{'negative' if seconds < 0 else 'NaN'} busy time {seconds}")
        self.busy_time += seconds
        return seconds

    def busy_event(self, seconds: float) -> Timeout:
        """Occupy the CPU for ``seconds``; returns the completion event."""
        return self.sim.timeout(self.busy(seconds))

    def execute(self, cycles: float) -> float:
        """Occupy the CPU for ``cycles`` of work."""
        return self.busy(self.seconds(cycles))

    def elapsed_cycles_since(self, t0: float) -> int:
        """Cycles elapsed on this CPU's clock since simulated time ``t0``."""
        return self.cycles(self.sim.now - t0)

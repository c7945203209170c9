"""Unit tests for the CPU cycle accounting and the copy-cost model."""

import pytest

from repro.errors import ConfigError
from repro.hardware.cpu import CpuSpec, HostCPU
from repro.hardware.memory import CopyRates, MemoryKind, MemoryModel
from repro.sim import Simulator
from repro.units import KiB, MB, MiB


@pytest.fixture
def sim():
    return Simulator()


class TestHostCPU:
    def test_default_is_pentium_pro_200(self, sim):
        cpu = HostCPU(sim)
        assert cpu.spec.clock_hz == 200e6

    def test_cycle_second_roundtrip(self, sim):
        cpu = HostCPU(sim)
        assert cpu.cycles(1.0) == 200_000_000
        assert cpu.seconds(200_000_000) == pytest.approx(1.0)

    def test_execute_advances_clock_by_cycles(self, sim):
        cpu = HostCPU(sim)
        done = []

        def job():
            yield cpu.execute(2_000_000)  # 10 ms at 200 MHz
            done.append(sim.now)

        sim.process(job())
        sim.run()
        assert done == [pytest.approx(0.010)]

    def test_busy_time_accumulates(self, sim):
        cpu = HostCPU(sim)
        cpu.busy(0.25)
        cpu.busy(0.5)
        assert cpu.busy_time == pytest.approx(0.75)

    def test_negative_busy_rejected(self, sim):
        with pytest.raises(ConfigError):
            HostCPU(sim).busy(-1.0)

    def test_nan_busy_rejected(self, sim):
        cpu = HostCPU(sim)
        with pytest.raises(ConfigError, match="NaN busy time"):
            cpu.busy(float("nan"))
        assert cpu.busy_time == 0.0

    def test_invalid_clock_rejected(self):
        with pytest.raises(ConfigError):
            CpuSpec(clock_hz=0)

    def test_elapsed_cycles_since(self, sim):
        cpu = HostCPU(sim)
        sim.timeout(0.001)
        sim.run()
        assert cpu.elapsed_cycles_since(0.0) == 200_000


class TestMemoryModel:
    def test_default_rates_match_paper(self):
        rates = CopyRates()
        assert rates.ram_to_ram == 45 * MB
        assert rates.wc_write == 80 * MB
        assert rates.wc_read == 14 * MB

    def test_rate_selection(self):
        mm = MemoryModel()
        assert mm.copy_rate(MemoryKind.NIC_SRAM, MemoryKind.HOST_RAM) == 14 * MB
        assert mm.copy_rate(MemoryKind.HOST_RAM, MemoryKind.NIC_SRAM) == 80 * MB
        assert mm.copy_rate(MemoryKind.HOST_RAM, MemoryKind.PINNED_RAM) == 45 * MB
        assert mm.copy_rate(MemoryKind.PINNED_RAM, MemoryKind.HOST_RAM) == 45 * MB

    def test_nic_to_nic_rejected(self):
        with pytest.raises(ConfigError):
            MemoryModel().copy_rate(MemoryKind.NIC_SRAM, MemoryKind.NIC_SRAM)

    def test_send_buffer_save_dominates_full_switch(self):
        """Paper Sec 4.2: reading the ~400KB send buffer off the card is the
        slow part even though the receive buffer is 2.5x bigger."""
        mm = MemoryModel()
        send_save = mm.copy_time(400 * KiB, MemoryKind.NIC_SRAM, MemoryKind.HOST_RAM)
        recv_save = mm.copy_time(1 * MiB, MemoryKind.PINNED_RAM, MemoryKind.HOST_RAM)
        assert send_save > recv_save

    def test_full_switch_under_85ms(self):
        """The four copies of a full buffer switch must land in the paper's
        envelope: < 85 ms (17M cycles at 200 MHz)."""
        mm = MemoryModel()
        total = (
            mm.copy_time(400 * KiB, MemoryKind.NIC_SRAM, MemoryKind.HOST_RAM)
            + mm.copy_time(400 * KiB, MemoryKind.HOST_RAM, MemoryKind.NIC_SRAM)
            + mm.copy_time(1 * MiB, MemoryKind.PINNED_RAM, MemoryKind.HOST_RAM)
            + mm.copy_time(1 * MiB, MemoryKind.HOST_RAM, MemoryKind.PINNED_RAM)
        )
        assert 0.050 < total < 0.085

    def test_scan_time(self):
        mm = MemoryModel(scan_cycles_per_slot=50)
        assert mm.scan_time(668, 200e6) == pytest.approx(668 * 50 / 200e6)

    def test_negative_inputs_rejected(self):
        mm = MemoryModel()
        with pytest.raises(ConfigError):
            mm.copy_time(-1, MemoryKind.HOST_RAM, MemoryKind.HOST_RAM)
        with pytest.raises(ConfigError):
            mm.scan_time(-1, 200e6)
        with pytest.raises(ConfigError):
            MemoryModel(scan_cycles_per_slot=-1)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigError):
            CopyRates(ram_to_ram=0)

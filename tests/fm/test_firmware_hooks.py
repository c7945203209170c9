"""The firmware hook contract: one generator loop, plain per-packet hooks.

``LanaiFirmware._run`` is the only generator on the NIC data path.  It
sleeps the LANai's busy times itself and calls plain methods around
those sleeps; the reliable and PM firmwares override only those
methods.  A hook written as a generator would be called by the loop
but never iterated — it would do nothing, and the packet it was given
would be silently lost — so these tests pin the contract, then drive a
PM ack/nack exchange and a reliable retransmit through the hooks.
"""

import inspect

import pytest

from repro.alternatives.pm_nack import PMFirmware, PMNetwork
from repro.faults.retransmit import ReliableFirmware
from repro.fm.buffers import FullBuffer
from repro.fm.config import FMConfig
from repro.fm.firmware import LanaiFirmware
from repro.fm.packet import PacketType
from repro.sim import Simulator
from tests.faults.test_retransmit import ScriptedInjector, exchange, rig

FIRMWARES = (LanaiFirmware, ReliableFirmware, PMFirmware)

#: Methods the run loop calls once per packet.
PER_PACKET_HOOKS = ("_next_data_packet", "_prepare_send", "_transmit",
                    "_accept", "_deliver", "_apply_refill",
                    "_delayed_credit", "_drop")

#: Generators that run as processes of their own, never inside ``_run``.
PROCESS_BODIES = {"_run", "_timer_proc", "_drain_pending", "_requeue",
                  "_drain_parked", "_resend"}


@pytest.fixture
def sim():
    return Simulator()


@pytest.mark.parametrize("cls", FIRMWARES, ids=lambda c: c.__name__)
def test_per_packet_hooks_are_plain_methods(cls):
    for name in PER_PACKET_HOOKS:
        assert not inspect.isgeneratorfunction(getattr(cls, name)), name


@pytest.mark.parametrize("cls", FIRMWARES, ids=lambda c: c.__name__)
def test_only_process_bodies_are_generators(cls):
    generators = {name for name, fn in inspect.getmembers(cls, inspect.isfunction)
                  if inspect.isgeneratorfunction(fn)}
    assert generators <= PROCESS_BODIES


@pytest.mark.parametrize("cls", FIRMWARES, ids=lambda c: c.__name__)
def test_the_old_generator_hooks_are_gone(cls):
    # An override under an old name would never be called by the loop.
    assert not hasattr(cls, "_inject")
    assert not hasattr(cls, "_receive_one")


class HookLog:
    """Wraps a firmware's hooks on the instance, before its loop starts."""

    def __init__(self, firmware):
        self.sent = []       # ptypes through _prepare_send
        self.accepted = []   # (ptype, returned a context)
        self.delivered = []  # seqs through _deliver
        prepare, accept, deliver = (firmware._prepare_send,
                                    firmware._accept, firmware._deliver)

        def prepare_send(packet):
            self.sent.append(packet.ptype)
            prepare(packet)

        def accept_(packet):
            ctx = accept(packet)
            self.accepted.append((packet.ptype, ctx is not None))
            return ctx

        def deliver_(ctx, packet):
            self.delivered.append(packet.seq)
            deliver(ctx, packet)

        firmware._prepare_send = prepare_send
        firmware._accept = accept_
        firmware._deliver = deliver_

    def count(self, ptype, dma=None):
        return sum(1 for t, d in self.accepted
                   if t is ptype and (dma is None or d is dma))


def test_pm_ack_nack_exchange_runs_through_the_hooks(sim):
    net = PMNetwork(sim, num_nodes=2, config=FMConfig(
        num_processors=2, recv_queue_packets=4, send_queue_packets=16))
    a, b = net.create_job(1, [0, 1], FullBuffer())
    tx_log, rx_log = HookLog(a.firmware), HookLog(b.firmware)
    messages = 8

    def tx():
        for _ in range(messages):
            yield from a.library.send(1, 1000)

    def rx():
        # Let the sender overrun the 4-slot receive queue first.
        yield sim.timeout(0.002)
        yield from b.library.extract_messages(messages)

    sim.process(tx())
    sim.run_until_processed(sim.process(rx()), max_events=1_000_000)
    sim.run(until=sim.now + 0.01)

    fw_a, fw_b = a.firmware, b.firmware
    assert fw_a.nacks_received > 0 and fw_a.resends == fw_a.nacks_received
    assert fw_a.acks_received == messages and fw_a.outstanding == 0
    assert b.library.messages_received == messages
    # Sender: every DATA transmission (originals and resends) went
    # through _prepare_send; every ack and nack through _accept.
    assert tx_log.sent.count(PacketType.DATA) == messages + fw_a.resends
    assert tx_log.count(PacketType.ACK, dma=False) == messages
    assert tx_log.count(PacketType.NACK, dma=False) == fw_a.nacks_received
    # Receiver: a DATA packet is DMAed and delivered, or nacked in _accept.
    assert rx_log.count(PacketType.DATA, dma=True) == messages
    assert rx_log.count(PacketType.DATA, dma=False) == fw_a.nacks_received
    assert len(rx_log.delivered) == messages
    assert rx_log.sent.count(PacketType.ACK) == messages
    assert rx_log.sent.count(PacketType.NACK) == fw_a.nacks_received


def test_reliable_retransmit_runs_through_the_hooks(sim):
    net, sender, receiver = rig(sim, injector=ScriptedInjector(["drop"]))
    tx_log, rx_log = HookLog(net.firmware(0)), HookLog(net.firmware(1))
    exchange(sim, sender, receiver)

    fw0, fw1 = net.firmware(0), net.firmware(1)
    assert fw0.retransmits == 1 and fw0.outstanding == 0
    assert receiver.library.messages_received == 1
    # The dropped original and its clone both passed _prepare_send.
    assert tx_log.sent.count(PacketType.DATA) == 2
    # Only the clone arrived; it was DMAed, delivered and acked.
    assert rx_log.accepted == [(PacketType.DATA, True)]
    assert len(rx_log.delivered) == 1
    assert rx_log.sent == [PacketType.ACK]
    assert tx_log.count(PacketType.ACK, dma=False) == fw0.acks_received == 1
    assert fw1.acks_sent == 1

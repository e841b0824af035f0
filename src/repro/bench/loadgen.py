"""The sim-clock load generator: synthetic PacketIns at a fixed rate.

Ticks on the simulator clock; each tick accumulates fractional rate
credit, draws that many flows from the :class:`~repro.bench.synth.
TrafficMix`, and injects each as a ``PacketIn`` at the source host's
attachment switch's *controller* -- the same entry point a real switch
punt uses (``Controller.handle_switch_message``), so events queue
through the service-time capacity model, shard routing, dispatch
lanes, AppVisor RPC, checkpoints, and replication exactly like
organic traffic.  App responses (floods, FlowMods) then act on the
*real* switch fabric, whose own punts amplify the offered load the
way an unconverged network does.

Everything downstream of the seeded mix is deterministic, so a run is
reproducible event-for-event.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.synth import TrafficMix
from repro.network.packet import tcp_packet
from repro.openflow.messages import PacketIn


class LoadGenerator:
    """Injects ``rate`` flows per simulated second until stopped."""

    #: Simulated seconds between ticks.
    TICK = 0.05

    def __init__(self, sim, controller_for: Callable[[int], object],
                 mix: TrafficMix, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.controller_for = controller_for
        self.mix = mix
        self.rate = rate
        self.events_offered = 0
        self.events_dropped = 0
        self._credit = 0.0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.schedule(self.TICK, self._tick)

    def stop(self) -> None:
        """Stop injecting (the pending tick becomes a no-op)."""
        self._running = False

    def inject(self, payload: str) -> None:
        """One extra flow carrying ``payload``, drawn from the mix as it
        stands now; it is not counted as offered load."""
        self._punt(64, payload)

    def _punt(self, size: int, payload: str = "") -> bool:
        """Draw a flow and punt it as its source switch would; False if
        no controller serves that switch."""
        src, dst = self.mix.sample()
        controller = self.controller_for(src.dpid)
        if controller is None:
            return False
        packet = tcp_packet(src.mac, dst.mac, src.ip, dst.ip,
                            src_port=10000 + src.idx % 5000,
                            dst_port=80, size=size, payload=payload)
        controller.handle_switch_message(
            src.dpid,
            PacketIn(dpid=src.dpid, in_port=src.port, packet=packet))
        return True

    def _tick(self) -> None:
        if not self._running:
            return
        self.mix.advance(self.TICK)
        self._credit += self.rate * self.TICK
        n = int(self._credit)
        self._credit -= n
        for _ in range(n):
            if self._punt(512):
                self.events_offered += 1
            else:
                # The owning shard is between primaries: a real switch's
                # punt would be lost too.
                self.events_dropped += 1
        self.sim.schedule(self.TICK, self._tick)

"""Output checks. Every failed check counts as one failed operation.

* Per-flow packet conservation on a finished single-process network:
  emitted = delivered + dropped + queued + in flight, with every hop's
  in-flight count between zero and what the link can hold.
* Delivery digests against the digests recorded in ``expected.json``
  for the default seed, and sharded against single-process digests.
* Conformance verdicts: zero violations, and recorded ``check_seed``
  digests.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: The seed whose outputs ``expected.json`` records.
DEFAULT_SEED = 1


class CheckLog:
    """Counts checks attempted and failed; keeps the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def load_expected() -> Dict[str, object]:
    """The recorded digests."""
    return json.loads(EXPECTED_PATH.read_text())


def _in_flight_cap(port, packet_bytes: int) -> int:
    """Most packets of ``packet_bytes`` one link direction can hold: one
    serialising, a bandwidth-delay product propagating, and one more for
    a packet whose arrival lands exactly on the horizon."""
    link = port.link
    return 1 + math.ceil(link.delay * link.rate_bps / (8 * packet_bytes)) + 1


def check_conservation(net, log: CheckLog) -> Dict[str, int]:
    """Check per-flow conservation on ``net``; return network totals."""
    totals = {"emitted": 0, "delivered": 0, "dropped": 0, "queued": 0,
              "in_flight": 0, "hop_deliveries": 0}
    for flow_id, spec in net.flows.items():
        emitted = sum(s.packets_emitted for s in spec.sources)
        record = net.sinks.flows.get(flow_id)
        delivered = record.packets if record is not None else 0
        smallest = min((s.packet_size for s in spec.sources), default=1)
        states = [port.scheduler.flow_state(flow_id) for port in spec.ports]
        arrived = emitted
        dropped = queued = in_flight = 0
        ok = True
        for i, state in enumerate(states):
            here = state.packets_sent + len(state.queue) + state.packets_dropped
            if i == 0:
                ok &= here == arrived
            else:
                moving = states[i - 1].packets_sent - here
                cap = _in_flight_cap(spec.ports[i - 1], smallest)
                ok &= 0 <= moving <= cap
                in_flight += moving
            dropped += state.packets_dropped
            queued += len(state.queue)
        if states:
            moving = states[-1].packets_sent - delivered
            ok &= 0 <= moving <= _in_flight_cap(spec.ports[-1], smallest)
            in_flight += moving
        ok &= emitted == delivered + dropped + queued + in_flight
        log.check(ok, f"conservation failed for flow {flow_id!r}: emitted "
                      f"{emitted}, delivered {delivered}, dropped {dropped}, "
                      f"queued {queued}, in flight {in_flight}")
        totals["emitted"] += emitted
        totals["delivered"] += delivered
        totals["dropped"] += dropped
        totals["queued"] += queued
        totals["in_flight"] += in_flight
        totals["hop_deliveries"] += delivered * len(spec.ports)
    return totals


def check_digest(
    log: CheckLog, what: str, got: str, want: Optional[str]
) -> None:
    """Compare a digest with its reference (no check without one)."""
    if want is not None:
        log.check(got == want, f"{what}: digest {got} != expected {want}")

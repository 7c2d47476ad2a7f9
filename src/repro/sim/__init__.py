"""SLEEPING-CONGEST simulator: network, round driver, metrics, tracing."""

from repro.sim.actions import WakeCall, broadcast_sends, listen
from repro.sim.context import NodeContext
from repro.sim.message import estimate_bits
from repro.sim.metrics import CompactRunMetrics, NodeMetrics, RunMetrics
from repro.sim.network import Network
from repro.sim.runner import ProtocolFactory, RunResult, Simulator, run_protocol
from repro.sim.trace import MessageEvent, Trace

__all__ = [
    "CompactRunMetrics",
    "MessageEvent",
    "Network",
    "NodeContext",
    "NodeMetrics",
    "ProtocolFactory",
    "RunMetrics",
    "RunResult",
    "Simulator",
    "Trace",
    "WakeCall",
    "broadcast_sends",
    "estimate_bits",
    "listen",
    "run_protocol",
]

"""Routing substrate: layouts, SWAP routing, fast bridging."""

from .bridging import (
    bridge_chain_gates,
    bridged_cnot_cost,
    swap_route_cost,
)
from .layout import Layout, greedy_interaction_layout
from .router import RoutingResult, route_circuit, verify_hardware_compliant

__all__ = [
    "Layout",
    "greedy_interaction_layout",
    "route_circuit",
    "RoutingResult",
    "verify_hardware_compliant",
    "bridge_chain_gates",
    "bridged_cnot_cost",
    "swap_route_cost",
]

"""CAN fieldbus simulator substrate.

Implements a discrete-event model of a CAN 2.0 network at bit-time
resolution: frames with exact stuffed lengths, priority arbitration with
wired-AND clustering of identical remote frames, the standard-layer driver
interface of the paper's Fig. 4 (``.req``/``.cnf``/``.ind`` plus the
``.nty`` extension), fault confinement (TEC/REC, error-active/passive/
bus-off) and a fault injector able to produce the *inconsistent omission*
failure mode the CANELy protocols are designed around.
"""

from repro.can.bus import CanBus
from repro.can.channels import DualChannelLayer
from repro.can.controller import CanController, ControllerState
from repro.can.driver import CanStandardLayer
from repro.can.errormodel import FaultInjector, FaultKind, FaultVerdict
from repro.can.filters import AcceptanceFilter, FilterBank
from repro.can.frame import CanFrame
from repro.can.identifiers import MessageId, MessageType
from repro.can.phy import BitTiming, max_bus_length_m
from repro.can.records import Delivery, deliveries
from repro.can.redundancy import MediaSet

__all__ = [
    "AcceptanceFilter",
    "BitTiming",
    "CanBus",
    "CanController",
    "CanFrame",
    "CanStandardLayer",
    "ControllerState",
    "Delivery",
    "DualChannelLayer",
    "FaultInjector",
    "FaultKind",
    "FaultVerdict",
    "FilterBank",
    "MediaSet",
    "MessageId",
    "MessageType",
    "deliveries",
    "max_bus_length_m",
]

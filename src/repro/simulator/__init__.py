"""Device and cost simulation (the paper-figure layer's experimental substrate)."""

from .cost_model import CostModel, ModelShape
from .device import Allocation, Device, DeviceKind, DeviceSet, DeviceSpec, GIB

__all__ = [
    "Allocation",
    "CostModel",
    "Device",
    "DeviceKind",
    "DeviceSet",
    "DeviceSpec",
    "GIB",
    "ModelShape",
]

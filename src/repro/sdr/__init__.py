"""Software-radio layer: IQ captures, front end, packet acquisition.

Plays the role of the paper's USRP N210 platform: everything between the
BLE bit stream and the complex baseband samples the localizer's CSI
extractor consumes.
"""

from repro.sdr.frontend import RadioFrontEnd, apply_channel_frequency_domain
from repro.sdr.iq import IqCapture
from repro.sdr.receiver import PacketDetector

__all__ = [
    "IqCapture",
    "PacketDetector",
    "RadioFrontEnd",
    "apply_channel_frequency_domain",
]

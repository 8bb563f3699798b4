"""Physical and BLE protocol constants used throughout the library.

All frequencies are in hertz, distances in metres, times in seconds unless a
name explicitly says otherwise.  These values come from the Bluetooth Core
Specification (v4.x PHY, the one BLoc targets) and from Section 2 / Section 7
of the paper.
"""

# ---------------------------------------------------------------------------
# Physics
# ---------------------------------------------------------------------------

#: Speed of light in vacuum [m/s] (the paper's ``c``).
SPEED_OF_LIGHT = 299_792_458.0

# ---------------------------------------------------------------------------
# BLE spectrum (paper Fig. 1a)
# ---------------------------------------------------------------------------

#: Lowest RF frequency used by BLE (centre of channel index 37) [Hz].
BLE_BAND_START_HZ = 2.402e9

#: Highest RF centre frequency (channel index 39) [Hz].
BLE_BAND_END_HZ = 2.480e9

#: Width of each BLE channel [Hz].
BLE_CHANNEL_WIDTH_HZ = 2.0e6

#: Centre frequency of data channel 0 [Hz] (the low data block starts
#: above advertising channel 37 at 2402 MHz).
BLE_DATA_LOW_BASE_HZ = 2.404e9

#: Centre frequency of advertising channel 38 [Hz] (the mid-band gap in
#: the 2 MHz data-channel lattice).
BLE_CHANNEL_38_FREQ_HZ = 2.426e9

#: Centre frequency of data channel 11 [Hz] (the high data block resumes
#: above advertising channel 38).
BLE_DATA_HIGH_BASE_HZ = 2.428e9

#: Total number of BLE channels (37 data + 3 advertising).
BLE_NUM_CHANNELS = 40

#: Number of data (connection) channels.  Prime, which guarantees the hop
#: sequence visits every channel (paper Section 2.1).
BLE_NUM_DATA_CHANNELS = 37

#: Channel indices reserved for advertising.
BLE_ADVERTISING_CHANNELS = (37, 38, 39)

#: Total spectrum spanned by BLE hops, the emulated aperture (paper: 80 MHz).
BLE_TOTAL_SPAN_HZ = 80.0e6

# ---------------------------------------------------------------------------
# BLE PHY (1M uncoded, the PHY BLoc uses)
# ---------------------------------------------------------------------------

#: Symbol (= bit) rate of the BLE 1M PHY [symbols/s].
BLE_SYMBOL_RATE = 1.0e6

#: Bandwidth-time product of the Gaussian pulse-shaping filter.
BLE_GAUSSIAN_BT = 0.5

#: Nominal modulation index of BLE GFSK (spec allows 0.45..0.55).
BLE_MODULATION_INDEX = 0.5

#: Peak frequency deviation for the nominal modulation index [Hz].
#: deviation = modulation_index * symbol_rate / 2 = 250 kHz, so the
#: bit-0 and bit-1 tones are separated by 500 kHz; the paper quotes the
#: *effective* 1 MHz separation of the outermost spectral content.
BLE_FREQ_DEVIATION_HZ = BLE_MODULATION_INDEX * BLE_SYMBOL_RATE / 2.0

#: Effective per-channel bandwidth usable for ranging (paper footnote 2).
BLE_EFFECTIVE_BANDWIDTH_HZ = 1.0e6

#: BLE 1M PHY preamble (8 alternating bits, LSB first: 0xAA or 0x55).
BLE_PREAMBLE_LENGTH_BITS = 8

#: Access address length.
BLE_ACCESS_ADDRESS_LENGTH_BITS = 32

#: Access address used on advertising channels.
BLE_ADVERTISING_ACCESS_ADDRESS = 0x8E89BED6

#: CRC length appended to every PDU.
BLE_CRC_LENGTH_BITS = 24

#: CRC polynomial x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1 (spec 3.1.1).
BLE_CRC_POLYNOMIAL = 0x00065B

#: CRC initial value used on advertising channels.
BLE_CRC_INIT_ADVERTISING = 0x555555

#: Whitening LFSR polynomial x^7 + x^4 + 1 (spec 3.2).
BLE_WHITENING_POLYNOMIAL = 0b1001_0001

#: Maximum data-channel PDU payload length in octets (4.2 spec).
BLE_MAX_PAYLOAD_OCTETS = 251

# ---------------------------------------------------------------------------
# BLoc system parameters (paper Sections 7 and 8)
# ---------------------------------------------------------------------------

#: Default number of anchors deployed (Fig. 3, Fig. 7c).
BLOC_DEFAULT_NUM_ANCHORS = 4

#: Default number of antennas per anchor (Section 7).
BLOC_DEFAULT_NUM_ANTENNAS = 4

#: Score weight ``a`` multiplying the summed distances in Eq. 18.
BLOC_SCORE_DISTANCE_WEIGHT = 0.1

#: Score weight ``b`` multiplying the neighbourhood entropy in Eq. 18.
BLOC_SCORE_ENTROPY_WEIGHT = 0.05

#: Side of the square neighbourhood window used for the spatial-entropy
#: computation around each likelihood peak (Section 7: "7 x 7").
BLOC_ENTROPY_WINDOW = 7

#: Room used for the evaluation: 5 m x 6 m VICON space (Section 7).
BLOC_ROOM_WIDTH_M = 6.0
BLOC_ROOM_HEIGHT_M = 5.0

#: Number of ground-truth tag placements in the paper's dataset.
BLOC_DATASET_SIZE = 1700

#: Duration a transmitter must dwell on a single tone for a stable CSI
#: sample (Section 6: "8 usec for each 0 and 1").
BLOC_TONE_DWELL_S = 8.0e-6

# ---------------------------------------------------------------------------
# Service
# ---------------------------------------------------------------------------

#: Grid resolution the localization service defaults to.  Coarser than
#: the paper's 0.05 m because a service trades a few centimetres of grid
#: quantisation for a ~4x smaller steering build per key; pass your own
#: specs/resolution to run the full-resolution grid.  Kept here, in a
#: module without imports, so ``repro serve`` can build its argument
#: parser before numpy loads.
DEFAULT_SERVICE_RESOLUTION_M = 0.1

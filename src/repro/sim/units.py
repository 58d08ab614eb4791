"""Unit helpers.

Simulation time is a ``float`` number of **seconds**.  Protocol constants
are far more readable when expressed in their native units, so the rest of
the code base goes through these helpers instead of sprinkling ``1e-3``
literals around.

The IEEE 802.11 *Time Unit* (TU) is 1024 microseconds; beacon intervals are
specified in TUs (the paper's access point uses 100 TU = 102.4 ms).
"""

#: One IEEE 802.11 Time Unit, in seconds (1024 us).
TU = 1024e-6

#: Bytes per kibibyte / mebibyte (used for payload sizing).
KIBIBYTE = 1024
MEBIBYTE = 1024 * 1024


def ms(value):
    """Convert milliseconds to seconds."""
    return value * 1e-3


def us(value):
    """Convert microseconds to seconds."""
    return value * 1e-6


def tu(value):
    """Convert IEEE 802.11 Time Units to seconds."""
    return value * TU


def mbps(value):
    """Convert megabits/second to bits/second."""
    return value * 1e6


def bytes_to_bits(nbytes):
    """Convert a byte count to bits."""
    return nbytes * 8

"""CBMA frame format (paper Sec. III-A).

A frame is::

    | preamble | length (1 byte) | payload (<= 126 bytes) | CRC-16 |

The default preamble is the paper's one byte ``10101010``; the frame
detection study (Fig. 8(c)) sweeps the preamble over 4..64 bits, so
the length is configurable.  The length byte counts payload bytes; the
CRC covers length + payload.  :class:`FrameFormat` owns this layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.utils.bits import as_bit_array, bytes_to_bits
from repro.utils.crc import CRC16_CCITT, Crc16

__all__ = ["FrameFormat", "Frame", "DEFAULT_PREAMBLE", "MAX_PAYLOAD_BYTES", "FrameError"]

#: The paper's preamble byte, alternating 1/0.
DEFAULT_PREAMBLE = "10101010"
MAX_PAYLOAD_BYTES = 126


class FrameError(ValueError):
    """Raised when bits cannot be parsed as a valid frame."""


@dataclass(frozen=True, eq=False)
class FrameFormat:
    """Frame geometry shared by tags and the receiver.

    Formats are values: two compare (and hash) equal when their
    preamble bits and CRC are equal.

    Attributes
    ----------
    preamble:
        The known preamble bit pattern (default: the paper's
        ``10101010``), as 0/1 bits or a ``"1010"`` string; validated
        and stored as a read-only uint8 bit array.
    crc:
        CRC implementation covering the length byte and payload.
    """

    preamble: np.ndarray = DEFAULT_PREAMBLE
    crc: Crc16 = CRC16_CCITT

    def __post_init__(self) -> None:
        bits = as_bit_array(self.preamble)  # always a fresh array
        bits.flags.writeable = False
        object.__setattr__(self, "preamble", bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameFormat):
            return NotImplemented
        return self.preamble.tobytes() == other.preamble.tobytes() and self.crc == other.crc

    def __hash__(self) -> int:
        return hash((self.preamble.tobytes(), self.crc))

    def __reduce__(self):
        # Rebuild through __init__ so an unpickled preamble is read-only too.
        return (type(self), (self.preamble, self.crc))

    @classmethod
    def with_preamble_bits(cls, n_bits: int) -> "FrameFormat":
        """Format with an alternating preamble of *n_bits* (Fig. 8(c) sweep)."""
        if n_bits < 1:
            raise ValueError("preamble must have at least 1 bit")
        return cls(preamble=("10" * n_bits)[:n_bits])

    @property
    def preamble_bits(self) -> int:
        return int(self.preamble.size)

    def header_bits(self) -> int:
        """Preamble + length field size in bits."""
        return self.preamble_bits + 8

    def overhead_bits(self) -> int:
        """All non-payload bits per frame (preamble + length + CRC)."""
        return self.header_bits() + 16

    def frame_bits(self, payload_bytes: int) -> int:
        """Total bits of a frame carrying *payload_bytes*."""
        if not 0 <= payload_bytes <= MAX_PAYLOAD_BYTES:
            raise ValueError(f"payload must be 0..{MAX_PAYLOAD_BYTES} bytes")
        return self.overhead_bits() + 8 * payload_bytes

    def build(self, payload: bytes) -> np.ndarray:
        """Serialise *payload* into frame bits."""
        payload = bytes(payload)
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise ValueError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD_BYTES}")
        body = bytes([len(payload)]) + payload
        crc = self.crc.compute(body).to_bytes(2, "big")
        return np.concatenate([self.preamble, bytes_to_bits(body + crc)])

    def rest_bits(self, length_bits: np.ndarray) -> Optional[int]:
        """Payload + CRC bits after the trusted 8 *length_bits* (uint8
        0/1, not re-validated); ``None`` for an implausible length."""
        length = int(np.packbits(length_bits)[0])
        if length > MAX_PAYLOAD_BYTES:
            return None
        return 8 * length + 16

    def open_body(self, body_bits: np.ndarray) -> Optional[bytes]:
        """The payload of trusted length + payload + CRC bits (uint8 0/1,
        not re-validated); ``None`` on a CRC mismatch."""
        data = np.packbits(body_bits).tobytes()
        if self.crc.compute(data[:-2]) != int.from_bytes(data[-2:], "big"):
            return None
        return data[1:-2]

    def parse(self, bits: np.ndarray, check_preamble: bool = True) -> "Frame":
        """Parse frame bits back into a :class:`Frame`.

        Raises :class:`FrameError` on truncation, bad preamble, an
        inconsistent length field or CRC mismatch.  ``check_preamble``
        can be disabled when the caller already synchronised on the
        preamble and stripped nothing.
        """
        arr = as_bit_array(bits)
        if arr.size < self.overhead_bits():
            raise FrameError(f"{arr.size} bits shorter than minimum frame {self.overhead_bits()}")
        if check_preamble and not np.array_equal(arr[: self.preamble_bits], self.preamble):
            raise FrameError("preamble mismatch")
        length_bits = arr[self.preamble_bits : self.header_bits()]
        need = self.rest_bits(length_bits)
        if need is None:
            raise FrameError(f"length byte {int(np.packbits(length_bits)[0])} exceeds max payload")
        have = arr.size - self.header_bits()
        if have < need:
            raise FrameError(f"frame truncated: need {need} bits after header, have {have}")
        payload = self.open_body(arr[self.preamble_bits : self.header_bits() + need])
        if payload is None:
            raise FrameError("CRC mismatch")
        return Frame(payload=payload, fmt=self)


@dataclass(frozen=True)
class Frame:
    """A parsed (or to-be-sent) frame."""

    payload: bytes
    fmt: FrameFormat = field(default_factory=FrameFormat)

    def to_bits(self) -> np.ndarray:
        """Serialise to on-air bits."""
        return self.fmt.build(self.payload)

    @property
    def n_bits(self) -> int:
        return self.fmt.frame_bits(len(self.payload))

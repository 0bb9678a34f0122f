package comm

import (
	"encoding/binary"
	"math"
)

// Little-endian append/read helpers used to serialize property-map sync
// messages without reflection. All payloads in Kimbap are built from
// uint32 node IDs, uint64/float64 values, and raw byte runs.

// AppendUint32 appends v in little-endian order.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendUint64 appends v in little-endian order.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendFloat64 appends the IEEE-754 bits of v.
func AppendFloat64(b []byte, v float64) []byte {
	return AppendUint64(b, math.Float64bits(v))
}

// ReadUint32 reads a uint32 and returns the remaining bytes.
func ReadUint32(b []byte) (uint32, []byte) {
	return binary.LittleEndian.Uint32(b), b[4:]
}

// ReadUint64 reads a uint64 and returns the remaining bytes.
func ReadUint64(b []byte) (uint64, []byte) {
	return binary.LittleEndian.Uint64(b), b[8:]
}

// ReadFloat64 reads a float64 and returns the remaining bytes.
func ReadFloat64(b []byte) (float64, []byte) {
	u, rest := ReadUint64(b)
	return math.Float64frombits(u), rest
}

// AppendUvarint appends v in LEB128 variable-length encoding (the npm
// payloads' key representation: section-relative key deltas are small, so
// most keys take one byte instead of four). The single-byte case is inlined
// — it dominates every delta stream the npm sync phases produce.
func AppendUvarint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

// ReadUvarint reads a LEB128 varint and returns the remaining bytes. Like
// the fixed-width readers it assumes well-formed input (internal traffic);
// a truncated or overlong varint panics. Untrusted bytes go through
// ReadUvarintChecked.
func ReadUvarint(b []byte) (uint64, []byte) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), b[1:]
	}
	v, n := binary.Uvarint(b)
	if n <= 0 {
		panic("comm: malformed uvarint")
	}
	return v, b[n:]
}

// ReadUvarintChecked reads a LEB128 varint, reporting malformed input
// instead of panicking — the decoder fuzz targets and payload validators
// use it to walk arbitrary bytes safely.
func ReadUvarintChecked(b []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

// UvarintLen returns the encoded size of v in bytes.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Package frame is the one record codec of the mutation journal and the hop
// wire. A record of k parts is
//
//	u32 len_1 | … | u32 len_k | part_1 | … | part_k | u32 CRC-32
//
// little-endian, the CRC (IEEE) taken over every byte before it. The journal
// writes k = 2 (key, payload), the hop wire k = 1. A reader passes its k as
// the number of parts it asks for and a cap on their total length; a claimed
// length over the cap and a checksum mismatch are both an *Error, and a
// record cut short is io.ErrUnexpectedEOF.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// growStep bounds how far Read grows its buffer ahead of the bytes that
// have arrived, so a lying length word costs at most this much memory.
const growStep = 64 << 10

// Error reports bytes that are not a record: a length over the caller's cap
// or a checksum mismatch. A mismatch costs no allocation, so a caller may
// try Decode at every offset of a damaged file.
type Error string

func (e Error) Error() string { return "frame: " + string(e) }

// Append appends the record of parts to b.
func Append(b []byte, parts ...[]byte) []byte {
	start := len(b)
	for _, p := range parts {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	}
	for _, p := range parts {
		b = append(b, p...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// Decode decodes the record at the front of b into parts, one view into b
// per part, and returns the record's length. limit caps the sum of the
// part lengths. A b shorter than the record it claims is
// io.ErrUnexpectedEOF.
func Decode(b []byte, parts [][]byte, limit int) (int, error) {
	head := 4 * len(parts)
	if len(b) < head+4 || sum(b[:head]) > uint64(len(b)-head-4) {
		return 0, io.ErrUnexpectedEOF
	}
	n, err := bodyLen(b[:head], limit)
	if err != nil {
		return 0, err
	}
	end := head + n
	if binary.LittleEndian.Uint32(b[end:]) != crc32.ChecksumIEEE(b[:end]) {
		return 0, Error("checksum mismatch")
	}
	off := head
	for i := range parts {
		l := int(binary.LittleEndian.Uint32(b[4*i:]))
		parts[i], off = b[off:off+l:off+l], off+l
	}
	return end + 4, nil
}

// bodyLen sums the length words of head against limit.
func bodyLen(head []byte, limit int) (int, error) {
	n := sum(head)
	if n > uint64(limit) {
		return 0, Error(fmt.Sprintf("record of %d bytes exceeds the %d-byte cap", n, limit))
	}
	return int(n), nil
}

// sum adds up the length words of head.
func sum(head []byte) uint64 {
	var n uint64
	for i := 0; i < len(head); i += 4 {
		n += uint64(binary.LittleEndian.Uint32(head[i:]))
	}
	return n
}

// Read reads one record from r into *buf and decodes it as Decode does. The
// buffer grows as bytes arrive, never from a claimed length. Read returns
// io.EOF if r ends before the record's first byte and io.ErrUnexpectedEOF
// if it ends inside it.
func Read(r io.Reader, buf *[]byte, parts [][]byte, limit int) error {
	b := append((*buf)[:0], make([]byte, 4*len(parts))...)
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	n, err := bodyLen(b, limit)
	if err != nil {
		return err
	}
	for size := len(b) + n + 4; len(b) < size; {
		off := len(b)
		b = append(b, make([]byte, min(size-off, growStep))...)
		*buf = b
		if _, err := io.ReadFull(r, b[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	_, err = Decode(b, parts, limit)
	return err
}

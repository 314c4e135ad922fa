package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
)

// TestRoundTripAndDamage encodes records of one to three parts and checks
// that Decode and Read give the parts back, that every cut is
// io.ErrUnexpectedEOF (io.EOF for Read before the first byte), and that a
// flipped bit anywhere is an Error, or a short record when it lengthens one.
func TestRoundTripAndDamage(t *testing.T) {
	for _, parts := range [][][]byte{
		{[]byte("payload")},
		{[]byte("b/00000000"), []byte{1, 2, 3}},
		{nil, []byte("x"), bytes.Repeat([]byte("y"), 300)},
	} {
		rec := Append([]byte("prefix"), parts...)[len("prefix"):]
		got := make([][]byte, len(parts))
		if n, err := Decode(rec, got, 1<<20); err != nil || n != len(rec) || !equal(got, parts) {
			t.Fatalf("Decode(%x) = %d, %q, %v", rec, n, got, err)
		}
		var buf []byte
		if err := Read(bytes.NewReader(rec), &buf, got, 1<<20); err != nil || !equal(got, parts) {
			t.Fatalf("Read(%x) = %q, %v", rec, got, err)
		}
		for cut := 0; cut < len(rec); cut++ {
			if _, err := Decode(rec[:cut], got, 1<<20); err != io.ErrUnexpectedEOF {
				t.Errorf("Decode cut at %d of %d: %v", cut, len(rec), err)
			}
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF
			}
			if err := Read(bytes.NewReader(rec[:cut]), &buf, got, 1<<20); err != want {
				t.Errorf("Read cut at %d of %d: %v, want %v", cut, len(rec), err, want)
			}
		}
		for bit := 0; bit < 8*len(rec); bit++ {
			bad := bytes.Clone(rec)
			bad[bit/8] ^= 1 << (bit % 8)
			var fe Error
			if _, err := Decode(bad, got, 1<<20); err != io.ErrUnexpectedEOF && !errors.As(err, &fe) {
				t.Errorf("bit %d flipped: %v, want an Error or a short record", bit, err)
			}
		}
	}
}

// TestReadLimits pins the two allocation guards: a length over the cap is
// refused before any body byte is read, and a length under it that the
// stream does not deliver costs about one growth step, not the claim.
func TestReadLimits(t *testing.T) {
	var fe Error
	head := binary.LittleEndian.AppendUint32(nil, 1001)
	if err := Read(bytes.NewReader(head), new([]byte), make([][]byte, 1), 1000); !errors.As(err, &fe) {
		t.Fatalf("length over the cap: %v, want an Error", err)
	}
	if _, err := Decode(append(head, make([]byte, 1005)...), make([][]byte, 1), 1000); !errors.As(err, &fe) {
		t.Fatalf("Decode of a length over the cap: %v, want an Error", err)
	}

	var before, after runtime.MemStats
	torn := append(binary.LittleEndian.AppendUint32(nil, 1<<28), 1, 2, 3)
	runtime.ReadMemStats(&before)
	err := Read(bytes.NewReader(torn), new([]byte), make([][]byte, 1), 1<<28)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("torn record claiming 256 MiB: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("torn record claiming 256 MiB allocated %d bytes", grew)
	}
}

func equal(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

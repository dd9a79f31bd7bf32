package trace

import (
	"bytes"
	"slices"
	"testing"
)

// The seed corpora live in testdata/fuzz/<target>/, so plain `go test`
// replays them; `make fuzz` explores from them.

// FuzzRead: any input parses or fails with an error, never a panic; what
// parses is bounded by the input length and round-trips through Write.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		name, reqs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A record is at least three bytes: two varints and a flags byte.
		if 3*len(reqs) > len(data) {
			t.Fatalf("%d records parsed from %d bytes", len(reqs), len(data))
		}
		var buf bytes.Buffer
		if err := Write(&buf, name, reqs); err != nil {
			t.Fatal(err)
		}
		name2, reqs2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading written trace: %v", err)
		}
		if name2 != name || !slices.Equal(reqs2, reqs) {
			t.Fatalf("round trip changed the trace: %q %v -> %q %v", name, reqs, name2, reqs2)
		}
	})
}

// FuzzReadText: any input parses or fails with an error, never a panic;
// what parses round-trips through WriteText.
func FuzzReadText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		name, reqs, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, name, reqs); err != nil {
			t.Fatal(err)
		}
		name2, reqs2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-reading written trace: %v", err)
		}
		if name2 != name || !slices.Equal(reqs2, reqs) {
			t.Fatalf("round trip changed the trace: %q %v -> %q %v", name, reqs, name2, reqs2)
		}
	})
}

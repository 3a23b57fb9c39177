package store

import (
	"hash/crc32"
	"os"
	"testing"
)

// FuzzParseEntry feeds arbitrary entry bytes and file names to the
// entry decoder. Whatever the store reads back from disk — torn,
// truncated, bit-flipped, planted — parseEntry must either reject it
// (the caller quarantines) or return a payload that matches its
// checksum under a file name bound to its own (campaign, cell); it
// must never panic.
func FuzzParseEntry(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(tCampaign, tCell, []byte(`{"ipc":1.2345678901234567}`)); err != nil {
		f.Fatal(err)
	}
	name := Key(tCampaign, tCell) + entryExt
	entry, err := os.ReadFile(entryPath(dir, tCampaign, tCell))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry, name)
	f.Add(entry[:len(entry)/2], name)
	f.Add([]byte("{}\n"), name)

	f.Fuzz(func(t *testing.T, data []byte, name string) {
		m, payload, err := parseEntry(data, name)
		if err != nil {
			return
		}
		if len(payload) != m.Len {
			t.Fatalf("accepted payload of %d bytes, metadata declares %d", len(payload), m.Len)
		}
		if crc := crc32.Checksum(payload, castagnoli); crc != m.CRC32C {
			t.Fatalf("accepted payload with CRC32C %08x, metadata %08x", crc, m.CRC32C)
		}
		if want := Key(m.Campaign, m.Cell) + entryExt; name != want {
			t.Fatalf("accepted entry for %q/%q under file name %s, want %s", m.Campaign, m.Cell, name, want)
		}
	})
}

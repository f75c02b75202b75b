package identity

import (
	"crypto/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzIdentityFiles feeds arbitrary bytes to the two identity file
// readers a node runs at start, LoadKey (roster false) and LoadRoster
// (roster true). It asserts that no input panics, that loading
// allocates in proportion to the input, and that every accepted input
// saves and loads again to an equal key or roster. The committed corpus
// holds a valid key file and roster, and the rejected cases: a roster
// naming node 1 as "01", a node index of 0, a short box key, and a key
// file giving its node both as "node" and as "Node".
func FuzzIdentityFiles(f *testing.F) {
	k, err := Generate(rand.Reader, 2)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	keyPath, rosterPath := filepath.Join(dir, "key"), filepath.Join(dir, "roster")
	if err := k.Save(keyPath); err != nil {
		f.Fatal(err)
	}
	if err := (Roster{2: k.Public()}).Save(rosterPath); err != nil {
		f.Fatal(err)
	}
	for roster, path := range map[bool]string{false: keyPath, true: rosterPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(roster, data)
	}
	// One input runs at a time per process, so the files are reused.
	in, out := filepath.Join(dir, "in"), filepath.Join(dir, "out")
	f.Fuzz(func(t *testing.T, roster bool, data []byte) {
		if err := os.WriteFile(in, data, 0o600); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		var key *Key
		var r Roster
		var err error
		runtime.ReadMemStats(&before)
		if roster {
			r, err = LoadRoster(in)
		} else {
			key, err = LoadKey(in)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10+64*len(data)); got > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if roster {
			if err := r.Save(out); err != nil {
				t.Fatal(err)
			}
			again, err := LoadRoster(out)
			if err != nil {
				t.Fatalf("saved roster does not load: %v", err)
			}
			if len(again) != len(r) {
				t.Fatalf("roster of %d nodes loads as %d", len(r), len(again))
			}
			for node, p := range r {
				q, ok := again[node]
				if !ok || !q.Sign.Equal(p.Sign) || !q.Box.Equal(p.Box) {
					t.Fatalf("node %d does not survive Save", node)
				}
			}
			return
		}
		if err := key.Save(out); err != nil {
			t.Fatal(err)
		}
		again, err := LoadKey(out)
		if err != nil {
			t.Fatalf("saved key does not load: %v", err)
		}
		if again.Node != key.Node || !again.Sign.Equal(key.Sign) || !again.Box.Equal(key.Box) {
			t.Fatal("key does not survive Save")
		}
	})
}

package keys

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/bz03"
	"thetacrypt/internal/schemes/sg02"
	"thetacrypt/internal/schemes/sh00"
	"thetacrypt/internal/wire"
)

// keyState is what a keystore holds, share values included, in List
// order: two stores with equal states serve the same keys.
type keyState struct {
	List   []Info
	Shares []string
}

func stateOf(ks *Keystore) keyState {
	st := keyState{List: ks.List()}
	for _, info := range st.List {
		k, _ := ks.Get(info.Scheme, info.ID)
		idx, v := shareRef(k)
		s := fmt.Sprint(idx)
		if v != nil {
			s += ":" + v.Text(16)
		}
		st.Shares = append(st.Shares, s)
	}
	return st
}

func loadFile(t *testing.T, path string) *Keystore {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := UnmarshalKeystore(raw)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// dealtKey deals one SG02 key to a (1, 4) committee and returns node
// 1's copy of it.
func dealtKey(t testing.TB) *Key {
	t.Helper()
	nodes, err := Deal(rand.Reader, 1, 4, Options{Schemes: []schemes.ID{schemes.SG02}})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := nodes[0].Get(schemes.SG02, "")
	return k
}

// logStore returns node 1's store holding size keys, copies of cur
// (a freshly dealt key when nil) under the default and other IDs, made
// durable at a fresh path and saved.
func logStore(t testing.TB, cur *Key, size int) (*Keystore, string) {
	t.Helper()
	if cur == nil {
		cur = dealtKey(t)
	}
	ks := NewKeystore(1, 1, 4)
	for i := 0; i < size; i++ {
		id := DefaultKeyID
		if i > 0 {
			id = fmt.Sprintf("k-%06d", i)
		}
		if err := ks.Add(&Key{ID: id, Scheme: schemes.SG02, Epoch: FirstEpoch, Public: cur.Public, Share: cur.Share}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "node1.key")
	ks.SetPersistPath(path)
	if err := ks.Save(); err != nil {
		t.Fatal(err)
	}
	return ks, path
}

// TestKeystoreV3GoldenLoads: a version-3 file written by an earlier
// release (DL keys on both groups, a BLS04 key, a public-only key and a
// key with an explicit committee) loads to the listing and shares that
// release recorded next to it, and a v4 snapshot of it loads the same
// and is byte for byte the snapshot an earlier release wrote of it.
func TestKeystoreV3GoldenLoads(t *testing.T) {
	raw, err := os.ReadFile("testdata/keystore_v3.golden")
	if err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile("testdata/keystore_v3.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		List   []Info
		Shares []struct {
			Scheme schemes.ID
			ID     string
			Index  int
			Value  string
		}
	}
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}
	ks, err := UnmarshalKeystore(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Index != 1 || ks.T != 1 || ks.N != 4 {
		t.Fatalf("header (index %d, t %d, n %d), want (1, 1, 4)", ks.Index, ks.T, ks.N)
	}
	if got := ks.List(); !reflect.DeepEqual(got, want.List) {
		t.Fatalf("listing differs:\n got %+v\nwant %+v", got, want.List)
	}
	for _, s := range want.Shares {
		k, err := ks.Get(s.Scheme, s.ID)
		if err != nil {
			t.Fatal(err)
		}
		idx, v := shareRef(k)
		got := ""
		if v != nil {
			got = hex.EncodeToString(v.Bytes())
		}
		if idx != s.Index || got != s.Value {
			t.Fatalf("%s/%s share (%d, %s), want (%d, %s)", s.Scheme, s.ID, idx, got, s.Index, s.Value)
		}
	}
	snap := ks.Marshal()
	again, err := UnmarshalKeystore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stateOf(again), stateOf(ks)) {
		t.Fatal("v4 snapshot of the imported store loads differently")
	}
	v4, err := os.ReadFile("testdata/keystore_v4.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, v4) {
		t.Fatal("v4 snapshot differs from testdata/keystore_v4.golden")
	}
}

// TestImportFormatsRefuseTrailingBytes: a v3 file with bytes after its
// last record is refused, as a v4 log already is; the same file without
// them loads.
func TestImportFormatsRefuseTrailingBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/keystore_v3.golden")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v3": golden} {
		if _, err := UnmarshalKeystore(data); err != nil {
			t.Fatalf("%s file: %v", name, err)
		}
		if _, err := UnmarshalKeystore(append(bytes.Clone(data), 1, 2, 3)); err == nil {
			t.Fatalf("%s file with 3 trailing bytes loaded", name)
		}
	}
}

// TestPreV3FormatsRefused: a version-2 file and a pre-keychain file
// (no magic: its first field is the 8-byte node index) each holding a
// valid SG02 key are refused with an error naming the format, and
// decoding either allocates no more than FuzzUnmarshalKeystore allows.
func TestPreV3FormatsRefused(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 3, Options{Schemes: []schemes.ID{schemes.SG02}})
	if err != nil {
		t.Fatal(err)
	}
	ks := nodes[0]
	k, _ := ks.Get(schemes.SG02, "")
	_, x := shareRef(k)
	v2 := wire.NewWriter().String(keystoreMagic).Int(2).Int(ks.Index).Int(ks.N).Int(ks.T).
		Int(1).String(k.ID).String(string(k.Scheme))
	writePublic(v2, k)
	legacy := wire.NewWriter().Int(ks.Index).Int(ks.N).Int(ks.T).Int(1).String(string(k.Scheme))
	writePublic(legacy, k)
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"v2", "unsupported keystore version 2", v2.BigInt(x).Out()},
		{"pre-keychain", "not a v3 or v4 keystore", legacy.BigInt(x).Out()},
	} {
		_, err := unmarshalBounded(t, c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s file: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// marshalSink keeps BenchmarkMarshal's result alive.
var marshalSink []byte

// BenchmarkMarshal prices a snapshot of 500 SG02 keys on P-256, what a
// node pays at startup and at every compaction.
func BenchmarkMarshal(b *testing.B) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{Group: group.P256(), Schemes: []schemes.ID{schemes.SG02}})
	if err != nil {
		b.Fatal(err)
	}
	cur, _ := nodes[0].Get(schemes.SG02, "")
	ks := NewKeystore(1, 1, 4)
	for i := 0; i < 500; i++ {
		k := &Key{ID: fmt.Sprintf("k-%06d", i), Scheme: schemes.SG02, Epoch: FirstEpoch, Public: cur.Public, Share: cur.Share}
		if err := ks.Add(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marshalSink = ks.Marshal()
	}
}

// TestInstallAppendsOneFrame pins the O(1) install: an Add leaves the
// file as it was plus exactly the installed key's frame, and a Replace
// does the same after zeroing the body of the frame it supersedes; the
// bytes written are the same at 10 keys as at 500.
func TestInstallAppendsOneFrame(t *testing.T) {
	grown := map[string][]int{}
	dealt := dealtKey(t)
	for _, size := range []int{10, 500} {
		ks, path := logStore(t, dealt, size)
		cur, _ := ks.Get(schemes.SG02, "")
		// The second Replace supersedes the frame the first appended.
		for _, step := range []struct {
			name    string
			k       *Key
			install func(*Key) error
		}{
			{"add", &Key{ID: "fresh", Scheme: schemes.SG02, Epoch: FirstEpoch, Public: cur.Public, Share: cur.Share}, ks.Add},
			{"replace", &Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: cur.Epoch + 1, Public: cur.Public, Share: cur.Share}, ks.Replace},
			{"replace again", &Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: cur.Epoch + 2, Public: cur.Public, Share: cur.Share}, ks.Replace},
		} {
			before, _ := os.ReadFile(path)
			want := bytes.Clone(before)
			if step.name != "add" {
				// The superseded frame's body and body CRC are zeroed.
				prev, _ := ks.Get(schemes.SG02, DefaultKeyID)
				old := appendFrame(nil, prev)
				at := bytes.Index(before, old)
				clear(want[at+bodyOffset(old) : at+len(old)])
				grown["erase"] = append(grown["erase"], len(old)-bodyOffset(old))
			}
			if err := step.install(step.k); err != nil {
				t.Fatal(err)
			}
			after, _ := os.ReadFile(path)
			if want = append(want, appendFrame(nil, step.k)...); !bytes.Equal(after, want) {
				t.Fatalf("%d keys, %s: file is not the old file plus one frame (%d -> %d bytes)",
					size, step.name, len(before), len(after))
			}
			grown[step.name] = append(grown[step.name], len(after)-len(before))
		}
		if !reflect.DeepEqual(stateOf(loadFile(t, path)), stateOf(ks)) {
			t.Fatalf("%d keys: the log reloads to another store", size)
		}
	}
	for name, d := range grown {
		for _, n := range d {
			if n != d[0] {
				t.Fatalf("%s wrote %v bytes at 10 and at 500 keys", name, d)
			}
		}
	}
}

// TestReplaceErasesOldShare: after a refresh, and after a membership
// change that leaves the node public-only, no share the key held
// before is in the key file. A one-key store alternates appends and
// snapshots: epochs 2 and 4 are appended, 3 and 5 snapshots, and the
// node is left out of the committee at epoch 4 and back in at 5.
func TestReplaceErasesOldShare(t *testing.T) {
	first := dealtKey(t)
	ks, path := logStore(t, first, 1)
	held := [][]byte{shareBytes(first)}
	for epoch := FirstEpoch + 1; epoch <= FirstEpoch+4; epoch++ {
		fresh := dealtKey(t)
		next := &Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: epoch, Public: fresh.Public, Share: fresh.Share}
		if epoch == FirstEpoch+3 {
			next.Share = nil
		}
		if err := ks.Replace(next); err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(path)
		for i, s := range held {
			if bytes.Contains(raw, s) {
				t.Fatalf("epoch %d: the share of epoch %d is still in the file", epoch, FirstEpoch+i)
			}
		}
		if next.Share != nil {
			if !bytes.Contains(raw, shareBytes(next)) {
				t.Fatalf("epoch %d: the current share is not in the file", epoch)
			}
			held = append(held, shareBytes(next))
		}
		if !reflect.DeepEqual(stateOf(loadFile(t, path)), stateOf(ks)) {
			t.Fatalf("epoch %d: the file reloads to another store", epoch)
		}
	}
}

// shareBytes is the big-endian share value of k as a record holds it.
func shareBytes(k *Key) []byte {
	_, x := shareRef(k)
	return x.Bytes()
}

// TestInterruptedEraseLoadsNewState: a crash while a Replace zeroes the
// superseded body leaves any mix of old and zero bytes there. The new
// frame is already durable, so every such file loads the new epoch.
func TestInterruptedEraseLoadsNewState(t *testing.T) {
	ks, path := logStore(t, nil, 2)
	cur, _ := ks.Get(schemes.SG02, "")
	old := ks.live[keyRef{scheme: schemes.SG02, id: DefaultKeyID}]
	before, _ := os.ReadFile(path)
	next := &Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: cur.Epoch + 1, Public: cur.Public, Share: cur.Share}
	if err := ks.Replace(next); err != nil {
		t.Fatal(err)
	}
	want := stateOf(ks)
	appended := appendFrame(bytes.Clone(before), next)
	for cut := old.from; cut <= old.to; cut++ {
		for _, part := range [][2]int{{old.from, cut}, {cut, old.to}} {
			mixed := bytes.Clone(appended)
			clear(mixed[part[0]:part[1]])
			got, err := UnmarshalKeystore(mixed)
			if err != nil || !reflect.DeepEqual(stateOf(got), want) {
				t.Fatalf("bytes %d..%d of the superseded body zeroed: %v", part[0], part[1], err)
			}
		}
	}
}

// TestLogCompacts: proactive refresh of one key alternates appends and
// snapshots, so the file never holds more than twice as many frames as
// live keys, and it always reloads to the live store.
func TestLogCompacts(t *testing.T) {
	ks, path := logStore(t, nil, 1)
	cur, _ := ks.Get(schemes.SG02, "")
	snap, _ := os.ReadFile(path)
	frame := len(appendFrame(nil, cur))
	for epoch := cur.Epoch + 1; epoch < cur.Epoch+8; epoch++ {
		if err := ks.Replace(&Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: epoch, Public: cur.Public, Share: cur.Share}); err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(path)
		if len(raw) > len(snap)+frame {
			t.Fatalf("epoch %d: file of %d bytes holds more than two frames of %d", epoch, len(raw), frame)
		}
		if k, _ := loadFile(t, path).Get(schemes.SG02, ""); k.Epoch != epoch {
			t.Fatalf("reloaded epoch %d, want %d", k.Epoch, epoch)
		}
	}
}

// TestTornTailLoadsPreviousState: a crash during an append leaves a
// prefix of its frame, or zeros in its place. Cut at every offset
// inside the last frame, zeroed, or with that frame's head or body
// damaged, the file loads to the state before that install.
func TestTornTailLoadsPreviousState(t *testing.T) {
	ks, path := logStore(t, nil, 2)
	cur, _ := ks.Get(schemes.SG02, "")
	if err := ks.Add(&Key{ID: "spare", Scheme: schemes.SG02, Epoch: FirstEpoch, Public: cur.Public}); err != nil {
		t.Fatal(err)
	}
	prev, _ := os.ReadFile(path)
	want := stateOf(loadFile(t, path))
	next := &Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: cur.Epoch + 1, Public: cur.Public, Share: cur.Share}
	if err := ks.Replace(next); err != nil {
		t.Fatal(err)
	}
	// The file during the append, before the Replace zeroed the body
	// the new frame supersedes.
	full := appendFrame(bytes.Clone(prev), next)
	for cut := len(prev); cut < len(full); cut++ {
		got, err := UnmarshalKeystore(full[:cut])
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", cut, len(full), err)
		}
		if !reflect.DeepEqual(stateOf(got), want) {
			t.Fatalf("cut at %d of %d: loaded another state", cut, len(full))
		}
	}
	// A crash can also leave the file extended over zeros.
	for cut := len(prev) + 1; cut <= len(full); cut++ {
		zeroed := append(bytes.Clone(prev), make([]byte, cut-len(prev))...)
		got, err := UnmarshalKeystore(zeroed)
		if err != nil || !reflect.DeepEqual(stateOf(got), want) {
			t.Fatalf("%d zero bytes after the last frame: %v", cut-len(prev), err)
		}
	}
	for off := len(prev) + 12; off < len(full); off++ {
		bad := bytes.Clone(full)
		bad[off] ^= 0x40
		got, err := UnmarshalKeystore(bad)
		if err != nil || !reflect.DeepEqual(stateOf(got), want) {
			t.Fatalf("last record damaged at %d: %v", off, err)
		}
	}
}

// TestCorruptMiddleFrameFailsLoad: a flipped byte anywhere in a frame
// that has more frames after it fails the load; replay never skips
// over it.
func TestCorruptMiddleFrameFailsLoad(t *testing.T) {
	ks, path := logStore(t, nil, 1)
	cur, _ := ks.Get(schemes.SG02, "")
	start, _ := os.ReadFile(path)
	if err := ks.Add(&Key{ID: "middle", Scheme: schemes.SG02, Epoch: FirstEpoch, Public: cur.Public, Share: cur.Share}); err != nil {
		t.Fatal(err)
	}
	mid, _ := os.ReadFile(path)
	if err := ks.Add(&Key{ID: "last", Scheme: schemes.SG02, Epoch: FirstEpoch, Public: cur.Public}); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(path)
	for off := len(start); off < len(mid); off++ {
		bad := bytes.Clone(full)
		bad[off] ^= 0x01
		if _, err := UnmarshalKeystore(bad); err == nil {
			t.Fatalf("flipped byte at %d (middle frame %d..%d) loaded", off, len(start), len(mid))
		}
	}
}

// TestReplayRefusesStaleEpoch: a later frame for a key must advance its
// epoch, as Replace demands at install time.
func TestReplayRefusesStaleEpoch(t *testing.T) {
	ks, _ := logStore(t, nil, 1)
	cur, _ := ks.Get(schemes.SG02, "")
	next := &Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: cur.Epoch + 1, Public: cur.Public, Share: cur.Share}
	log := appendFrame(ks.Marshal(), next)
	if k, _ := mustLoad(t, log).Get(schemes.SG02, ""); k.Epoch != next.Epoch {
		t.Fatalf("replayed epoch %d, want %d", k.Epoch, next.Epoch)
	}
	for _, epoch := range []int{next.Epoch, cur.Epoch} {
		stale := &Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: epoch, Public: cur.Public, Share: cur.Share}
		if _, err := UnmarshalKeystore(appendFrame(log, stale)); !errors.Is(err, ErrKeyEpoch) {
			t.Fatalf("frame at epoch %d after epoch %d: %v, want ErrKeyEpoch", epoch, next.Epoch, err)
		}
	}
}

func mustLoad(t *testing.T, data []byte) *Keystore {
	t.Helper()
	ks, err := UnmarshalKeystore(data)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// TestConcurrentInstallsReloadExactly races Adds, Replaces and Saves on
// one durable store; the file then reloads to exactly the store in
// memory, so no install was lost or written twice.
func TestConcurrentInstallsReloadExactly(t *testing.T) {
	ks, path := logStore(t, nil, 4)
	cur, _ := ks.Get(schemes.SG02, "")
	const workers, rounds = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*3) // a slot for every call that can fail
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := ks.Add(&Key{ID: id, Scheme: schemes.SG02, Epoch: FirstEpoch, Public: cur.Public, Share: cur.Share}); err != nil {
					errs <- err
				}
				if err := ks.Replace(&Key{ID: id, Scheme: schemes.SG02, Epoch: FirstEpoch + 1, Public: cur.Public, Share: cur.Share}); err != nil {
					errs <- err
				}
				if i%3 == w%3 {
					if err := ks.Save(); err != nil {
						errs <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := stateOf(loadFile(t, path)), stateOf(ks); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded %d keys, memory holds %d", len(got.List), len(want.List))
	}
}

// TestFailedAppendLeavesMemoryUnchanged: when the append cannot be
// written, Add and Replace fail and the store keeps what it had; once
// the file is writable again the next install rewrites it whole.
func TestFailedAppendLeavesMemoryUnchanged(t *testing.T) {
	ks, path := logStore(t, nil, 2)
	cur, _ := ks.Get(schemes.SG02, "")
	want := stateOf(ks)
	// A directory where the file was: no open for append can succeed,
	// as root neither.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := ks.Add(&Key{ID: "lost", Scheme: schemes.SG02, Epoch: FirstEpoch, Public: cur.Public, Share: cur.Share}); err == nil {
		t.Fatal("Add succeeded without a writable file")
	}
	if err := ks.Replace(&Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: cur.Epoch + 1, Public: cur.Public, Share: cur.Share}); err == nil {
		t.Fatal("Replace succeeded without a writable file")
	}
	if got := stateOf(ks); !reflect.DeepEqual(got, want) {
		t.Fatal("a failed install changed the store in memory")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := ks.Add(&Key{ID: "kept", Scheme: schemes.SG02, Epoch: FirstEpoch, Public: cur.Public, Share: cur.Share}); err != nil {
		t.Fatal(err)
	}
	if got := loadFile(t, path); !reflect.DeepEqual(stateOf(got), stateOf(ks)) || got.Len() != 3 {
		t.Fatalf("file after recovery holds %d keys, want 3", got.Len())
	}
}

// TestLogChangedBehindStore: when the key file is not the log the
// store wrote, here an older copy put back, an install writes a
// snapshot instead of appending to it or erasing within it.
func TestLogChangedBehindStore(t *testing.T) {
	ks, path := logStore(t, nil, 2)
	cur, _ := ks.Get(schemes.SG02, "")
	older, _ := os.ReadFile(path)
	if err := ks.Add(&Key{ID: "spare", Scheme: schemes.SG02, Epoch: FirstEpoch, Public: cur.Public}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, older, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := ks.Replace(&Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: cur.Epoch + 1, Public: cur.Public, Share: cur.Share}); err != nil {
		t.Fatal(err)
	}
	if got, want := stateOf(loadFile(t, path)), stateOf(ks); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded %d keys, memory holds %d", len(got.List), len(want.List))
	}
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw, ks.Marshal()) {
		t.Fatal("the install did not write a snapshot")
	}
}

// TestHostileCountsRefused: a list count that is negative or larger
// than the file could hold is refused before anything is allocated for
// it — the committee list and every scheme's verification-key list, in
// the v3 and v4 formats alike. On earlier releases a count of -1
// panicked and one of 2^40 exhausted memory.
func TestHostileCountsRefused(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{RSABits: 512, UseRSAFixture: true,
		Schemes: []schemes.ID{schemes.SG02, schemes.BZ03, schemes.SH00, schemes.BLS04}})
	if err != nil {
		t.Fatal(err)
	}
	ks := nodes[0]
	header := func(version int) *wire.Writer {
		return wire.NewWriter().String(keystoreMagic).Int(version).Int(ks.Index).Int(ks.N).Int(ks.T)
	}
	load := func(what string, cnt int, ok bool, files map[int][]byte) {
		t.Helper()
		for version, data := range files {
			if _, err := UnmarshalKeystore(data); (err == nil) != ok {
				t.Fatalf("v%d %s, count %d: err = %v, want accepted %v", version, what, cnt, err, ok)
			}
		}
	}
	for _, cnt := range []int{ks.N, -1, 1 << 40, ks.N + 1} {
		for _, scheme := range []schemes.ID{schemes.SG02, schemes.BZ03, schemes.SH00, schemes.BLS04} {
			k, _ := ks.Get(scheme, "")
			// The public material with its VK count replaced by cnt.
			w := wire.NewWriter()
			writePublic(w, k)
			pub := w.Out()
			w = wire.NewWriter()
			writePublic(w, &Key{Scheme: scheme, Public: withoutVK(k.Public)})
			at := len(w.Out()) - 12
			bad := append(append(bytes.Clone(pub[:at]), wire.NewWriter().Int(cnt).Out()...), pub[at+12:]...)

			head := wire.NewWriter().String(k.ID).String(string(scheme)).Int(k.Epoch).Out()
			body := append(wire.NewWriter().Int(ks.T).Int(ks.N).Int(0).Int(0).Out(), bad...)
			load(string(scheme)+" verification keys", cnt, cnt == ks.N, map[int][]byte{
				3: append(append(header(3).Int(1).Out(), head...), body...),
				4: appendFrameParts(header(4).Out(), head, body),
			})
		}
	}
	k, _ := ks.Get(schemes.SG02, "")
	w := wire.NewWriter()
	writePublic(w, k)
	head := wire.NewWriter().String(k.ID).String(string(schemes.SG02)).Int(k.Epoch).Out()
	for _, cnt := range []int{0, -1, 1 << 40} {
		body := append(wire.NewWriter().Int(ks.T).Int(ks.N).Int(cnt).Int(0).Out(), w.Out()...)
		load("committee", cnt, cnt == 0, map[int][]byte{
			3: append(append(header(3).Int(1).Out(), head...), body...),
			4: appendFrameParts(header(4).Out(), head, body),
		})
	}
	// A key's committee is drawn from the store's nodes, and a store
	// holds at most maxParties: a larger n is refused before its
	// verification keys are read, which bounds SH00's n! at load.
	for _, scheme := range []schemes.ID{schemes.SG02, schemes.SH00} {
		k, _ := ks.Get(scheme, "")
		w := wire.NewWriter()
		writeBody(w, k)
		head := wire.NewWriter().String(k.ID).String(string(scheme)).Int(k.Epoch).Out()
		for _, n := range []int{ks.N, ks.N - 1, maxParties + 1} {
			header := func(version int) *wire.Writer {
				return wire.NewWriter().String(keystoreMagic).Int(version).Int(ks.Index).Int(n).Int(ks.T)
			}
			load(string(scheme)+" key of n = 4 in a store of", n, n == ks.N, map[int][]byte{
				3: append(append(header(3).Int(1).Out(), head...), w.Out()...),
				4: appendFrameParts(header(4).Out(), head, w.Out()),
			})
		}
	}
	if _, err := Deal(rand.Reader, 1, maxParties+1, Options{Schemes: []schemes.ID{schemes.SG02}}); err == nil {
		t.Fatalf("the dealer dealt to %d parties", maxParties+1)
	}
}

// TestNonCanonicalIntegersRefused: every integer of a key file has one
// encoding. A v3 file whose SG02 share carries a leading zero byte, or
// whose SH00 modulus N is negative, is refused; both loaded on earlier
// releases. The two files are also FuzzUnmarshalKeystore corpus
// entries (v3-share-leading-zero, v3-sh00-negative-n).
func TestNonCanonicalIntegersRefused(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{RSABits: 512, UseRSAFixture: true,
		Schemes: []schemes.ID{schemes.SG02, schemes.SH00}})
	if err != nil {
		t.Fatal(err)
	}
	ks := nodes[0]
	v3 := func(k *Key) []byte {
		w := wire.NewWriter().String(keystoreMagic).Int(3).Int(ks.Index).Int(ks.N).Int(ks.T).Int(1)
		writeRecord(w, k)
		return w.Out()
	}
	sg, _ := ks.Get(schemes.SG02, "")
	good := v3(sg)
	if _, err := UnmarshalKeystore(good); err != nil {
		t.Fatalf("canonical v3 file refused: %v", err)
	}
	// The share is the record's last field.
	_, x := shareRef(sg)
	share := wire.NewWriter().BigInt(x).Out()
	padded := append(bytes.Clone(good[:len(good)-len(share)]), wire.NewWriter().Bytes(append([]byte{0, 0}, x.Bytes()...)).Out()...)

	sh, _ := ks.Get(schemes.SH00, "")
	pk := *sh.Public.(*sh00.PublicKey)
	pk.N = new(big.Int).Neg(pk.N)
	negN := *sh
	negN.Public = &pk

	for name, data := range map[string][]byte{"share with a leading zero": padded, "negative SH00 N": v3(&negN)} {
		if _, err := UnmarshalKeystore(data); err == nil {
			t.Fatalf("%s loaded", name)
		}
	}
}

// withoutVK returns a copy of a public key with no verification keys;
// *sg02.PublicKey is the discrete-log key of KG20 and CKS05 too.
func withoutVK(pub any) any {
	switch pk := pub.(type) {
	case *sg02.PublicKey:
		c := *pk
		c.VK = nil
		return &c
	case *bz03.PublicKey:
		c := *pk
		c.VK = nil
		return &c
	case *sh00.PublicKey:
		c := *pk
		c.VK = nil
		return &c
	case *bls04.PublicKey:
		c := *pk
		c.VK = nil
		return &c
	}
	panic(fmt.Sprintf("no VK list in %T", pub))
}

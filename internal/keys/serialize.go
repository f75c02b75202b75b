package keys

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/big"

	"thetacrypt/internal/group"
	"thetacrypt/internal/mathutil"
	"thetacrypt/internal/pairing"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/bz03"
	"thetacrypt/internal/schemes/sh00"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

// The keystore file format is versioned. Version 4 ("TKS2", written
// by Marshal and Save) is an append-only log: a header (magic, version,
// Index, N, T) followed by frames, one per installed key. A frame is
//
//	u32 len(head) | u32 len(body) | u32 CRC-32C(both lengths) |
//	head | u32 CRC-32C(head) | body | u32 CRC-32C(body)
//
// all big-endian. The head names the key version: ID, scheme and
// epoch. The body carries the rest of the key's lifecycle state:
// per-key (t, n) and committee membership — after a
// membership-changing reshare these differ from the store header — a
// share index, 0 for nodes outside the key's committee, which persist
// the public half only, then the public material and the share value.
// Head and body together are the version-3 record. A snapshot holds one
// frame per live key; every later install appends one more. A later
// frame for the same (scheme, ID) supersedes the earlier one, and
// Replace then zeroes the earlier frame's body and body CRC, so a
// superseded share does not stay in the file; replay reads only the
// heads of superseded frames. The lengths have their own CRC so that a
// damaged length is caught where it stands, not mistaken for a frame
// running past the end of the file.
//
// Version 3 files (the same records, counted instead of framed) load
// as an import format. Older files — version 2 and the unversioned
// format without the magic — are refused.
const (
	keystoreMagic   = "TKS2"
	keystoreVersion = 4
)

// frameOverhead is the bytes a frame adds around its head and body.
const frameOverhead = 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Marshal serializes the keystore as a compacted version-4 snapshot:
// the header, then one frame per key. cmd/thetakeygen writes one file
// per node.
func (ks *Keystore) Marshal() []byte { return ks.marshal(nil) }

// marshal writes the snapshot. When live is not nil it also records
// there where each key's frame body lies in the snapshot. Every record
// is encoded through one writer, then framed into one buffer sized for
// the whole snapshot.
func (ks *Keystore) marshal(live map[keyRef]span) []byte {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	w := wire.NewWriter().String(keystoreMagic).Int(keystoreVersion).
		Int(ks.Index).Int(ks.N).Int(ks.T)
	header := len(w.Out())
	// ends holds each record's head end and body end in w.
	ends := make([]int, 0, 2*len(ks.order))
	for _, k := range ks.order {
		ends = append(ends, writeRecord(w, k), len(w.Out()))
	}
	recs := w.Out()
	out := make([]byte, header, len(recs)+frameOverhead*len(ks.order))
	copy(out, recs)
	at := header
	for i, k := range ks.order {
		from, head, end := len(out), ends[2*i], ends[2*i+1]
		out = appendFrameParts(out, recs[at:head], recs[head:end])
		if live != nil {
			live[keyRef{scheme: k.Scheme, id: k.ID}] = span{from: from + bodyOffset(out[from:]), to: len(out)}
		}
		at = end
	}
	return out
}

// appendFrame appends k to dst as one frame.
func appendFrame(dst []byte, k *Key) []byte {
	w := wire.NewWriter()
	head := writeRecord(w, k)
	rec := w.Out()
	return appendFrameParts(dst, rec[:head], rec[head:])
}

// writeRecord appends k's head and body to w and returns where in w
// the head ends.
func writeRecord(w *wire.Writer, k *Key) int {
	w.String(k.ID).String(string(k.Scheme)).Int(k.Epoch)
	head := len(w.Out())
	writeBody(w, k)
	return head
}

// appendFrameParts appends one frame holding an encoded head and body.
func appendFrameParts(dst, head, body []byte) []byte {
	at := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(head)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[at:], castagnoli))
	dst = append(dst, head...)
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(head, castagnoli))
	dst = append(dst, body...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli))
}

// bodyOffset returns where the body of the frame that frame starts
// with begins; the body and its CRC run from there to the frame's end.
func bodyOffset(frame []byte) int {
	return 12 + int(binary.BigEndian.Uint32(frame)) + 4
}

// writeBody writes a record's body: per-key (t, n), committee, share
// index (0 = public-only), public material, and the share value when
// present.
func writeBody(w *wire.Writer, k *Key) {
	t, n := k.Params()
	w.Int(t).Int(n)
	w.Int(len(k.Members))
	for _, m := range k.Members {
		w.Int(m)
	}
	idx, val := shareRef(k)
	w.Int(idx)
	writePublic(w, k)
	if idx > 0 {
		w.BigInt(val)
	}
}

// UnmarshalKeystore parses a keystore file: the current version-4 log
// or the version-3 lifecycle format. Every key goes through Add, so the
// share check holds for a loaded key as for an installed one, and the
// frames of a version-4 log must advance each key's epoch, as Replace
// demands.
func UnmarshalKeystore(data []byte) (*Keystore, error) {
	r := wire.NewReader(data)
	if r.String() != keystoreMagic || r.Err() != nil {
		return nil, fmt.Errorf("keys: not a v3 or v4 keystore: no %q magic", keystoreMagic)
	}
	version := r.Int()
	if version < 3 || version > keystoreVersion {
		return nil, fmt.Errorf("keys: unsupported keystore version %d", version)
	}
	ks := NewKeystore(r.Int(), 0, 0)
	ks.N = r.Int()
	ks.T = r.Int()
	if err := checkHeader(r, ks); err != nil {
		return nil, err
	}
	if version == keystoreVersion {
		if err := ks.replay(data[len(data)-r.Remaining():]); err != nil {
			return nil, err
		}
		return ks, nil
	}
	count, err := readCount(r)
	if err != nil {
		return nil, fmt.Errorf("keys header: %w", err)
	}
	for i := 0; i < count; i++ {
		k, err := readRecord(r, ks.N)
		if err != nil {
			return nil, fmt.Errorf("keys record %d: %w", i, err)
		}
		if err := ks.Add(k); err != nil {
			return nil, err
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("keys: %w", err)
	}
	return ks, nil
}

// checkHeader checks the store header just read: a deployment of more
// than maxParties nodes is refused, and with it, through readBody, any
// key of more parties, before a verification-key list is read.
func checkHeader(r *wire.Reader, ks *Keystore) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("keys header: %w", err)
	}
	if ks.N > maxParties {
		return fmt.Errorf("keys header: %d nodes, more than %d", ks.N, maxParties)
	}
	return nil
}

// replay loads the frames of a version-4 log. A frame cut short, or
// failing its head or body CRC, at the very end of the log, or a zeroed
// end of the log, is an append that never completed: the install it belonged to never returned, so
// replay ignores it. A bad frame with more bytes after it is corruption
// and fails the load, except for the body of a superseded frame, which
// replay never reads: Replace zeroes it, and a crash can leave that
// half done. Each later frame for a key must advance its epoch
// (ErrKeyEpoch); the last one is decoded and goes through Add. Keys
// load in the order of their first frames, which is the install order.
func (ks *Keystore) replay(log []byte) error {
	type version struct {
		off   int
		epoch int
		body  []byte // nil when the body fails its CRC
	}
	latest := make(map[keyRef]*version)
	var order []keyRef
	for off := 0; off < len(log); {
		rest := log[off:]
		if len(rest) < 12 {
			break // torn lengths
		}
		if crc32.Checksum(rest[:8], castagnoli) != binary.BigEndian.Uint32(rest[8:]) {
			if allZero(rest) {
				break // torn append whose bytes never reached the disk
			}
			return fmt.Errorf("keys: frame at offset %d: lengths fail their checksum", off)
		}
		hl := uint64(binary.BigEndian.Uint32(rest))
		bl := uint64(binary.BigEndian.Uint32(rest[4:]))
		if hl+bl+frameOverhead > uint64(len(rest)) {
			break // torn frame
		}
		end := int(hl+bl) + frameOverhead
		head, body := rest[12:12+hl], rest[16+hl:end-4]
		headOK := crc32.Checksum(head, castagnoli) == binary.BigEndian.Uint32(rest[12+hl:])
		bodyOK := crc32.Checksum(body, castagnoli) == binary.BigEndian.Uint32(rest[end-4:])
		if end == len(rest) && !(headOK && bodyOK) {
			break // torn frame, its lengths intact
		}
		if !headOK {
			return fmt.Errorf("keys: frame at offset %d: head fails its checksum", off)
		}
		r := wire.NewReader(head)
		ref := keyRef{id: r.String(), scheme: schemes.ID(r.String())}
		v := version{off: off, epoch: r.Int(), body: body}
		if err := r.End(); err != nil {
			return fmt.Errorf("keys: frame at offset %d: %w", off, err)
		}
		if !bodyOK {
			v.body = nil
		}
		if prev, ok := latest[ref]; !ok {
			latest[ref] = &v
			order = append(order, ref)
		} else if v.epoch <= prev.epoch {
			return fmt.Errorf("keys: frame at offset %d: %w: epoch %d does not advance %d for %s/%s",
				off, ErrKeyEpoch, v.epoch, prev.epoch, ref.scheme, ref.id)
		} else {
			*prev = v
		}
		off += end
	}
	for _, ref := range order {
		v := latest[ref]
		if v.body == nil {
			return fmt.Errorf("keys: frame at offset %d: body fails its checksum", v.off)
		}
		r := wire.NewReader(v.body)
		k, err := readBody(r, ref.scheme, ks.N)
		if err == nil {
			err = r.End()
		}
		if err != nil {
			return fmt.Errorf("keys: frame at offset %d: %s/%s: %w", v.off, ref.scheme, ref.id, err)
		}
		k.ID, k.Epoch = ref.id, v.epoch
		if err := ks.Add(k); err != nil {
			return fmt.Errorf("keys: frame at offset %d: %w", v.off, err)
		}
	}
	return nil
}

// allZero reports whether b holds only zero bytes. A crash during an
// append can leave the file extended over zeros: the length grew but
// the frame's bytes were not written.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// readCount reads an element count. Every element is a wire field of
// at least four bytes, so a count the unread input cannot hold, or a
// negative one, is refused before anything is allocated for it.
func readCount(r *wire.Reader) (int, error) {
	n := r.Int()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if n < 0 || n > r.Remaining()/4 {
		return 0, fmt.Errorf("keys: count %d with %d bytes left", n, r.Remaining())
	}
	return n, nil
}

// readRecord reads one version-3 record, a version-4 head and body
// back to back, in a store of maxN nodes.
func readRecord(r *wire.Reader, maxN int) (*Key, error) {
	id := r.String()
	scheme := schemes.ID(r.String())
	epoch := r.Int()
	k, err := readBody(r, scheme, maxN)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", scheme, id, err)
	}
	k.ID, k.Epoch = id, epoch
	return k, nil
}

// readBody reads a record's body as writeBody wrote it. Every key's
// committee is drawn from the store's nodes, so a key of more than
// maxN parties is refused.
func readBody(r *wire.Reader, scheme schemes.ID, maxN int) (*Key, error) {
	t := r.Int()
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > maxN {
		return nil, fmt.Errorf("keys: key of %d parties in a store of %d nodes", n, maxN)
	}
	mcount, err := readCount(r)
	if err != nil {
		return nil, err
	}
	var members []int
	if mcount > 0 {
		members = make([]int, mcount)
		for i := range members {
			members[i] = r.Int()
		}
	}
	idx := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	pub, err := readPublic(r, scheme, t, n)
	if err != nil {
		return nil, err
	}
	var shr any
	if idx > 0 {
		shr = makeShare(scheme, idx, r.Nat())
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return &Key{Scheme: scheme, Public: pub, Share: shr, Members: members}, nil
}

// writePublic appends one key's public material.
func writePublic(w *wire.Writer, k *Key) {
	switch k.Scheme {
	case schemes.SG02, schemes.KG20, schemes.CKS05:
		pk := k.Public.(*share.PublicKey)
		w.String(pk.Group.Name())
		w.Bytes(pk.Y.Marshal())
		writePoints(w, pk.VK)
	case schemes.BZ03:
		pk := k.Public.(*bz03.PublicKey)
		w.Bytes(pk.Y.Marshal())
		w.Int(len(pk.VK))
		for _, vk := range pk.VK {
			w.Bytes(vk.Marshal())
		}
	case schemes.SH00:
		pk := k.Public.(*sh00.PublicKey)
		w.BigInt(pk.N).BigInt(pk.E).BigInt(pk.V)
		w.Int(len(pk.VK))
		for _, vk := range pk.VK {
			w.BigInt(vk)
		}
	case schemes.BLS04:
		pk := k.Public.(*bls04.PublicKey)
		w.Bytes(pk.Y.Marshal())
		w.Int(len(pk.VK))
		for _, vk := range pk.VK {
			w.Bytes(vk.Marshal())
		}
	}
}

// shareRef extracts the share index and scalar value of a key's share
// material; (0, nil) for public-only records.
func shareRef(k *Key) (int, *big.Int) {
	switch s := k.Share.(type) {
	case share.Share:
		return s.Index, s.Value
	case sh00.KeyShare:
		return s.Index, s.S
	default:
		return 0, nil
	}
}

// makeShare wraps a share scalar in the scheme's key-share type: SH00
// keeps its own, every other scheme shares one (index, scalar) pair.
func makeShare(scheme schemes.ID, index int, v *big.Int) any {
	if scheme == schemes.SH00 {
		return sh00.KeyShare{Index: index, S: v}
	}
	return share.Share{Index: index, Value: v}
}

// readPublic parses one key's public material into the scheme's
// public-key type with the given threshold parameters. Every scheme
// keeps one verification key per party, so a list of other than n
// keys is refused before it is read.
func readPublic(r *wire.Reader, scheme schemes.ID, t, n int) (any, error) {
	var pub any
	switch scheme {
	case schemes.SG02, schemes.KG20, schemes.CKS05:
		g, y, vk, err := readDLPublic(r, n)
		if err != nil {
			return nil, err
		}
		pub = &share.PublicKey{Group: g, Y: y, VK: vk, T: t, N: n}
	case schemes.BZ03:
		y, ok := pairing.UnmarshalG1(r.Bytes())
		if !ok {
			return nil, fmt.Errorf("bad Y")
		}
		vk, err := readG2s(r, n)
		if err != nil {
			return nil, err
		}
		pub = &bz03.PublicKey{Y: y, VK: vk, T: t, N: n}
	case schemes.SH00:
		pk := &sh00.PublicKey{
			N: r.Nat(), E: r.Nat(), V: r.Nat(),
			T: t, NParties: n,
		}
		if err := readVKCount(r, n); err != nil {
			return nil, err
		}
		pk.VK = make([]*big.Int, n)
		for j := range pk.VK {
			pk.VK[j] = r.Nat()
		}
		// n is at most maxParties (checkHeader, readBody), which bounds
		// the cost of n! at load.
		pk.Delta = mathutil.Factorial(n)
		pub = pk
	case schemes.BLS04:
		y, ok := pairing.UnmarshalG2(r.Bytes())
		if !ok {
			return nil, fmt.Errorf("bad Y")
		}
		vk, err := readG2s(r, n)
		if err != nil {
			return nil, err
		}
		pub = &bls04.PublicKey{Y: y, VK: vk, T: t, N: n}
	default:
		return nil, fmt.Errorf("keys: unknown scheme %q in key file", scheme)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return pub, nil
}

// readVKCount reads the length of a verification-key list, which must
// be n and fit in the unread input.
func readVKCount(r *wire.Reader, n int) error {
	cnt, err := readCount(r)
	if err != nil {
		return err
	}
	if cnt != n {
		return fmt.Errorf("keys: %d verification keys for n = %d", cnt, n)
	}
	return nil
}

// readDLPublic reads the public material of a discrete-log key (SG02,
// KG20, CKS05): group name, group key, and n verification keys.
func readDLPublic(r *wire.Reader, n int) (group.Group, group.Point, []group.Point, error) {
	g, err := group.ByName(r.String())
	if err != nil {
		return nil, nil, nil, err
	}
	y, err := readPoint(r, g)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := readVKCount(r, n); err != nil {
		return nil, nil, nil, err
	}
	vk := make([]group.Point, n)
	for i := range vk {
		if vk[i], err = readPoint(r, g); err != nil {
			return nil, nil, nil, err
		}
	}
	return g, y, vk, nil
}

// readG2s reads the n G2 verification keys of a BZ03 or BLS04 key.
func readG2s(r *wire.Reader, n int) ([]*pairing.G2, error) {
	if err := readVKCount(r, n); err != nil {
		return nil, err
	}
	vk := make([]*pairing.G2, n)
	for j := range vk {
		p, ok := pairing.UnmarshalG2(r.Bytes())
		if !ok {
			return nil, fmt.Errorf("bad VK[%d]", j)
		}
		vk[j] = p
	}
	return vk, nil
}

// PublicBytes marshals the key's public material (for listings and
// cross-node comparison); nil when the material type is unknown.
func (k *Key) PublicBytes() []byte {
	w := wire.NewWriter()
	switch pk := k.Public.(type) {
	case *share.PublicKey:
		w.Bytes(pk.Y.Marshal())
	case *bz03.PublicKey:
		w.Bytes(pk.Y.Marshal())
	case *sh00.PublicKey:
		w.BigInt(pk.N).BigInt(pk.E)
	case *bls04.PublicKey:
		w.Bytes(pk.Y.Marshal())
	default:
		return nil
	}
	return w.Out()
}

func writePoints(w *wire.Writer, pts []group.Point) {
	w.Int(len(pts))
	for _, p := range pts {
		w.Bytes(p.Marshal())
	}
}

func readPoint(r *wire.Reader, g group.Group) (group.Point, error) {
	raw := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return g.UnmarshalPoint(raw)
}

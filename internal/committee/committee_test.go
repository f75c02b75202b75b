package committee

import (
	"context"
	"testing"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// TestConcurrentRefreshJoinsOneInstance pins the proactive-refresh
// recipe: one ReshareKey with default options advances the key by one
// epoch on the same committee. Two nodes asking for it at once, before
// either waits, derive the same instance ID and so run one resharing,
// not two.
func TestConcurrentRefreshJoinsOneInstance(t *testing.T) {
	const n = 4
	com, err := New(1, n, Config{Schemes: []schemes.ID{schemes.SG02}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(com.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	h1, err := com.UnitAt(1).ReshareKey(ctx, schemes.SG02, keys.DefaultKeyID, api.ReshareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h3, err := com.UnitAt(3).ReshareKey(ctx, schemes.SG02, keys.DefaultKeyID, api.ReshareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h1.InstanceID != h3.InstanceID {
		t.Fatalf("refreshes at nodes 1 and 3 diverge: %s vs %s", h1.InstanceID, h3.InstanceID)
	}
	for i := 1; i <= n; i++ {
		if res, err := com.UnitAt(i).Wait(ctx, h1); err != nil || res.Err != nil {
			t.Fatalf("node %d: refresh: %v / %+v", i, err, res)
		}
	}
	want := keys.FirstEpoch + 1
	for i := 1; i <= n; i++ {
		k, err := com.UnitAt(i).Store.Get(schemes.SG02, keys.DefaultKeyID)
		if err != nil {
			t.Fatal(err)
		}
		if k.Epoch != want {
			t.Fatalf("node %d holds epoch %d, want %d", i, k.Epoch, want)
		}
	}

	secret := []byte("refreshed once")
	ct, err := com.Encrypt(ctx, schemes.SG02, "", secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := com.Submit(ctx, protocols.Request{
		Scheme: schemes.SG02, Op: protocols.OpDecrypt, Payload: ct, Epoch: want,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := com.Wait(ctx, h); err != nil || res.Err != nil || string(res.Value) != string(secret) {
		t.Fatalf("decrypt pinned to epoch %d: %v / %+v", want, err, res)
	}
}

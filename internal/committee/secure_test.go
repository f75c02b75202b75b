package committee

import (
	"context"
	"testing"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/schemes"
)

// TestSecureCommitteeGeneratedIdentities pins the one path: New
// generates a consistent identity set, and a sealed DKG across the
// committee completes.
func TestSecureCommitteeGeneratedIdentities(t *testing.T) {
	com, err := New(1, 4, Config{Schemes: []schemes.ID{schemes.SG02}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(com.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	kh, err := com.GenerateKey(ctx, schemes.KG20, api.GenerateKeyOptions{KeyID: "gen-sec"})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := com.Wait(ctx, kh); err != nil || res.Err != nil {
		t.Fatalf("sealed keygen on generated identities: %v / %+v", err, res)
	}
}

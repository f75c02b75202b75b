// Front-running prevention (the paper's Section 2.3 motivating
// application): clients encrypt transactions under the service-wide
// threshold key, validators order the ciphertexts through total-order
// broadcast WITHOUT seeing their content, and only after the order is
// fixed does the Θ-network jointly decrypt. A front-running validator
// learns the transaction contents only when reordering is no longer
// possible.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"thetacrypt"
	"thetacrypt/examples/frontrunning/tob"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frontrunning:", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 4
	cluster, err := thetacrypt.NewCluster(1, n, thetacrypt.ClusterOptions{
		Schemes: []thetacrypt.SchemeID{thetacrypt.SG02},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// The blockchain substrate: a total-order broadcast channel among
	// the validators (in production this is the host chain's consensus;
	// here the sequencer-based TOB from the network layer).
	hub := memnet.NewHub(n, memnet.Options{Latency: time.Millisecond})
	defer hub.Close()
	channels := make([]*tob.Sequencer, n)
	for i := 1; i <= n; i++ {
		channels[i-1] = tob.New(hub.Endpoint(i), i, 1)
	}
	defer func() {
		for _, c := range channels {
			_ = c.Close()
		}
	}()

	// Clients submit ENCRYPTED transactions to the mempool.
	txs := []string{
		"swap 100 ETH for DAI at pool X",
		"buy  500 ABC tokens",
		"sell 250 ABC tokens",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fmt.Println("== clients submit encrypted transactions ==")
	for i, tx := range txs {
		ct, err := cluster.Encrypt(ctx, thetacrypt.SG02, "", []byte(tx), []byte(fmt.Sprintf("tx-%d", i)))
		if err != nil {
			return err
		}
		// Each client submits through a different validator.
		if err := channels[i%n].Submit(ctx, network.Envelope{
			Instance: fmt.Sprintf("tx-%d", i),
			Payload:  ct,
		}); err != nil {
			return err
		}
		fmt.Printf("  tx %d: %d ciphertext bytes submitted (content hidden)\n", i, len(ct))
	}

	// Validators deliver the same order everywhere. Once the order is
	// fixed, the whole committed block is decrypted as one batch
	// submission against the unified Service interface.
	fmt.Println("== validators decrypt in committed order ==")
	var ordered []string
	var reqs []thetacrypt.Request
	for i := 0; i < len(txs); i++ {
		select {
		case env := <-channels[0].Delivered():
			ordered = append(ordered, env.Instance)
			reqs = append(reqs, thetacrypt.Request{
				Scheme:  thetacrypt.SG02,
				Op:      thetacrypt.OpDecrypt,
				Payload: env.Payload,
				Session: env.Instance,
			})
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	results, err := thetacrypt.ExecuteBatch(ctx, cluster, reqs)
	if err != nil {
		return fmt.Errorf("decrypt block: %w", err)
	}
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("decrypt %s: %w", ordered[i], res.Err)
		}
		fmt.Printf("  position %d (%s): %s\n", i+1, ordered[i], res.Value)
	}
	fmt.Println("order was fixed before any validator could read the transactions")
	return nil
}

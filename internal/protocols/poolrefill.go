package protocols

import (
	"fmt"
	"io"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/precompute"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/wire"
)

// MarshalPoolRefill encodes an OpPoolRefill payload: the initiator's
// per-boot run id, the base sequence number the batch starts at, and
// the batch size. The run id namespaces the sequence numbers — a
// restarted initiator draws a fresh one, so its volatile sequence
// counter can never collide with ranges banked before the restart.
func MarshalPoolRefill(run, base uint64, batch int) []byte {
	return wire.NewWriter().Uint64(run).Uint64(base).Int(batch).Out()
}

// UnmarshalPoolRefill decodes an OpPoolRefill payload.
func UnmarshalPoolRefill(data []byte) (run, base uint64, batch int, err error) {
	r := wire.NewReader(data)
	run = r.Uint64()
	base = r.Uint64()
	batch = r.Int()
	if err := r.Err(); err != nil {
		return 0, 0, 0, fmt.Errorf("pool refill payload: %w", err)
	}
	if batch < 1 || batch > 4096 {
		return 0, 0, 0, fmt.Errorf("pool refill batch %d out of range", batch)
	}
	return run, base, batch, nil
}

// poolRefillProtocol is the one-round FROST preprocessing instance:
// every signer of the fixed signing group generates `batch` nonce pairs
// for sequence numbers base..base+batch-1, banks its own secrets in the
// node's nonce pool, and broadcasts the commitments; every node
// (signer or not) observes all commitments into its pool. The instance
// is ready once the commitments of the full signer group are banked —
// from then on the online signing path is a single round. The request
// epoch pins the sharing (checkedKey), so a refill can never bank
// material for a superseded epoch.
type poolRefillProtocol struct {
	rand io.Reader
	pk   *frost.PublicKey
	pool *precompute.NoncePool

	scheme string
	keyID  string
	epoch  int

	// selfShare is this node's committee share index (0 outside the
	// committee); only signers (selfShare ≤ T+1) contribute nonces.
	selfShare int
	run       uint64
	base      uint64
	batch     int

	signers   []int
	heard     map[int]bool
	started   bool
	finalized bool
}

func newPoolRefill(rand io.Reader, k *keys.Key, req Request, env Env, selfShare int) (Protocol, error) {
	pool := env.Suite.NoncePool()
	if !pool.Enabled() {
		return nil, fmt.Errorf("protocols: pool refill on a node with nonce pooling disabled")
	}
	pk, ok := k.Public.(*frost.PublicKey)
	if !ok {
		return nil, fmt.Errorf("protocols: key %s/%s public material is %T", k.Scheme, k.ID, k.Public)
	}
	run, base, batch, err := UnmarshalPoolRefill(req.Payload)
	if err != nil {
		return nil, fmt.Errorf("protocols: %w", err)
	}
	signers := make([]int, pk.T+1)
	for i := range signers {
		signers[i] = i + 1
	}
	return &poolRefillProtocol{
		rand: rand, pk: pk, pool: pool,
		scheme: string(k.Scheme), keyID: k.ID, epoch: k.Epoch,
		selfShare: selfShare,
		run:       run, base: base, batch: batch,
		signers: signers,
		heard:   make(map[int]bool, len(signers)),
	}, nil
}

func (p *poolRefillProtocol) isSigner() bool {
	return p.selfShare >= 1 && p.selfShare <= p.pk.T+1
}

func (p *poolRefillProtocol) DoRound() (*RoundOutput, error) {
	if p.finalized {
		return nil, ErrAlreadyFinalized
	}
	if p.started {
		return nil, nil
	}
	p.started = true
	if !p.isSigner() {
		return nil, nil
	}
	nonces, comms, err := frost.Precompute(p.rand, p.pk.Group, p.selfShare, p.batch)
	if err != nil {
		return nil, fmt.Errorf("pool refill: %w", err)
	}
	p.pool.BankOwn(p.scheme, p.keyID, p.epoch, p.run, p.base, nonces, comms)
	p.heard[p.selfShare] = true
	w := wire.NewWriter().Uint64(p.base).Int(len(comms))
	for _, c := range comms {
		w.Bytes(c.Marshal())
	}
	return &RoundOutput{Round: 1, Payload: w.Out()}, nil
}

func (p *poolRefillProtocol) Update(msg ProtocolMessage) error {
	if p.finalized {
		return nil
	}
	r := wire.NewReader(msg.Payload)
	base := r.Uint64()
	count := r.Int()
	if err := r.Err(); err != nil || base != p.base || count < 1 || count > p.batch {
		return fmt.Errorf("%w: malformed pool refill batch from %d", ErrShareRejected, msg.Sender)
	}
	comms := make([]*frost.NonceCommitment, count)
	for i := range comms {
		c, err := frost.UnmarshalNonceCommitment(p.pk.Group, r.Bytes())
		if err != nil || c.Index != msg.Sender {
			return fmt.Errorf("%w: bad commitment in refill batch from %d", ErrShareRejected, msg.Sender)
		}
		comms[i] = c
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: truncated refill batch from %d", ErrShareRejected, msg.Sender)
	}
	p.pool.Observe(p.scheme, p.keyID, p.epoch, p.run, base, comms)
	p.heard[msg.Sender] = true
	return nil
}

func (p *poolRefillProtocol) IsReadyForNextRound() bool { return false }

func (p *poolRefillProtocol) IsReadyToFinalize() bool {
	if p.finalized || !p.started {
		return false
	}
	for _, idx := range p.signers {
		if !p.heard[idx] {
			return false
		}
	}
	return true
}

func (p *poolRefillProtocol) Finalize() ([]byte, error) {
	if !p.IsReadyToFinalize() {
		return nil, ErrNotReady
	}
	p.finalized = true
	return []byte(fmt.Sprintf("%d+%d", p.base, p.batch)), nil
}

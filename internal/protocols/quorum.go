package protocols

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// quorum is the one path every threshold operation's shares take: it
// collects them by index, checks them and combines t+1 of them. It
// holds the node's own share, one verdict per peer sender and the
// combined result. A scheme plugs into the protocol module with one
// buildOp case that supplies its decode, index, check and combine
// functions, without touching the protocol code (the paper's
// extensibility claim).
//
// The own share is never checked, since a check could only fail on a
// local fault. Such a fault still surfaces: when a quorum whose peer
// shares all passed their checks does not combine, the error ends the
// instance locally and names no peer. The combines of SG02, BZ03, SH00,
// BLS04 and KG20 verify their output; CKS05's does not, so it relies on
// the keystore, which refuses a discrete-log key share that does not
// match its verification key at install.
//
// The check policy is fixed per scheme. An eager quorum checks each
// peer share on arrival and stores only the valid ones. A lazy one
// stores peer shares after decode's structural checks alone, for a
// combine that verifies its output: only if that combine fails are the
// unchecked shares checked one by one, and the bad ones dropped and
// rejected naming their senders. Under both policies a sender whose
// share failed its check is ignored for the rest of the instance, so
// each sender costs at most one check.
type quorum[S any] struct {
	need int  // shares that combine: t+1
	own  int  // the node's share index; peer shares claiming it are ignored
	lazy bool // check the combined result first, shares only if it fails

	decode  func([]byte) (S, error) // decoding and structural checks
	index   func(S) int
	check   func(S) error
	combine func([]S) ([]byte, error) // shares ascending by index

	shares  map[int]S
	verdict map[int]bool // per peer sender: whether its share passed check
	done    bool
	result  []byte
}

// addOwn stores the node's own share, unchecked, and combines if it
// completes the quorum.
func (q *quorum[S]) addOwn(s S) error {
	if q.done {
		return nil
	}
	return q.store(q.own, s)
}

// add takes in a peer's share and combines if it completes the
// quorum. Shares from a sender already stored or judged, and every
// share once the result is in, are ignored.
func (q *quorum[S]) add(sender int, payload []byte) error {
	_, stored := q.shares[sender]
	_, judged := q.verdict[sender]
	if q.done || stored || judged || sender == q.own {
		return nil
	}
	s, err := q.decode(payload)
	if err != nil {
		return rejectShare(sender, err)
	}
	if i := q.index(s); i != sender {
		return rejectShare(sender, fmt.Errorf("share index %d", i))
	}
	if !q.lazy {
		if err := q.judge(sender, s); err != nil {
			return err
		}
	}
	return q.store(sender, s)
}

func (q *quorum[S]) store(i int, s S) error {
	if q.shares == nil {
		q.shares = make(map[int]S, q.need)
	}
	q.shares[i] = s
	return q.settle()
}

// judge checks a peer share and records the verdict.
func (q *quorum[S]) judge(sender int, s S) error {
	if q.verdict == nil {
		q.verdict = make(map[int]bool)
	}
	err := q.check(s)
	q.verdict[sender] = err == nil
	if err != nil {
		return rejectShare(sender, err)
	}
	return nil
}

// settle combines the stored shares once they are a quorum. If the
// combine fails, every peer share not yet judged is checked: the bad
// ones are dropped and returned as rejections, and the quorum waits for
// further shares. With none to blame, the own share is bad.
func (q *quorum[S]) settle() error {
	if q.done || len(q.shares) < q.need {
		return nil
	}
	idx := make([]int, 0, len(q.shares))
	for i := range q.shares {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	shares := make([]S, len(idx))
	for k, i := range idx {
		shares[k] = q.shares[i]
	}
	out, err := q.combine(shares)
	if err == nil {
		q.done, q.result = true, out
		return nil
	}
	var rejections []error
	for _, i := range idx {
		if _, judged := q.verdict[i]; judged || i == q.own {
			continue
		}
		if rerr := q.judge(i, q.shares[i]); rerr != nil {
			delete(q.shares, i)
			rejections = append(rejections, rerr)
		}
	}
	if len(rejections) == 0 {
		return fmt.Errorf("quorum of valid peer shares does not combine: %w", err)
	}
	return errors.Join(rejections...)
}

// marshaler is a single-round scheme's share, which DoRound sends
// encoded.
type marshaler interface{ Marshal() []byte }

// singleRound runs a quorum as a one-round TRI protocol: DoRound makes
// the node's own share and sends it, Update takes in the peers'.
type singleRound[S marshaler] struct {
	q         *quorum[S]
	create    func(io.Reader) (S, error)
	rand      io.Reader
	started   bool
	finalized bool
}

func (p *singleRound[S]) DoRound() (*RoundOutput, error) {
	if p.finalized {
		return nil, ErrAlreadyFinalized
	}
	if p.started {
		// Single-round protocol: nothing to do in later rounds.
		return nil, nil
	}
	p.started = true
	s, err := p.create(p.rand)
	if err != nil {
		return nil, fmt.Errorf("create share: %w", err)
	}
	if err := p.q.addOwn(s); err != nil {
		return nil, err
	}
	return &RoundOutput{Round: 1, Payload: s.Marshal()}, nil
}

func (p *singleRound[S]) Update(msg ProtocolMessage) error {
	if p.finalized {
		return nil // late shares are ignored
	}
	return p.q.add(msg.Sender, msg.Payload)
}

func (p *singleRound[S]) IsReadyForNextRound() bool { return false }

// IsReadyToFinalize holds once the quorum combined and the own share
// went out: peers may still need it.
func (p *singleRound[S]) IsReadyToFinalize() bool {
	return p.started && !p.finalized && p.q.done
}

func (p *singleRound[S]) Finalize() ([]byte, error) {
	if !p.q.done {
		return nil, ErrNotReady
	}
	p.finalized = true
	return p.q.result, nil
}

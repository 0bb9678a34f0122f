// Package bufownership exercises the §8 buffer-ownership analyzer
// against the real comm API. The violating cases are distilled from PR
// 2-5 near-misses: a send buffer written before the round boundary, a
// payload retained in a field, and an append through a sent slice.
package bufownership

import "kimbap/internal/comm"

type host struct {
	bufs  [2][]byte
	gen   int
	stash []byte
	log   [][]byte
}

// writeAfterSend is the basic violation: the receiver may still be
// reading buf when the sender scribbles on it.
func writeAfterSend(ep comm.Endpoint, buf []byte) {
	ep.Send(1, comm.TagApp, buf)
	buf[0] = 1 // want `write to buf\[0\] after buf was handed to a comm send`
}

// retainAfterSend stores the sent payload in a field, escaping the
// round-local ownership argument (the PR 3 near-miss).
func (h *host) retainAfterSend(ep comm.Endpoint, buf []byte) {
	ep.Send(1, comm.TagApp, buf)
	h.stash = buf // want `sent buffer buf is retained in h\.stash`
}

// retainViaAppend hides the retention inside an append.
func (h *host) retainViaAppend(ep comm.Endpoint, buf []byte) {
	ep.Send(1, comm.TagApp, buf)
	h.log = append(h.log, buf) // want `sent buffer buf is retained in h\.log`
}

// appendAfterSend may write the shared backing array in place.
func appendAfterSend(ep comm.Endpoint, buf []byte) []byte {
	ep.Send(1, comm.TagApp, buf)
	return append(buf, 0) // want `append to buf after buf was handed to a comm send`
}

// copyAfterSend overwrites sent bytes directly.
func copyAfterSend(ep comm.Endpoint, buf, next []byte) {
	ep.Send(1, comm.TagApp, buf)
	copy(buf, next) // want `copy into buf after buf was handed to a comm send`
}

// aliasWrite evades nothing: the alias is tracked too.
func aliasWrite(ep comm.Endpoint, buf []byte) {
	ep.Send(1, comm.TagApp, buf)
	p := buf
	p[0] = 1 // want `write to p\[0\] after p was handed to a comm send`
}

// writeOnSomePath is caught by the may-analysis: one path through the if
// has sent buf by the time of the write.
func writeOnSomePath(ep comm.Endpoint, buf []byte, cond bool) {
	if cond {
		ep.Send(1, comm.TagApp, buf)
	}
	buf[0] = 1 // want `write to buf\[0\] after buf was handed to a comm send`
}

// exchangeElementWrite: after Exchange, replacing a slot header is fine
// (the receiver keeps its own reference) but writing bytes through a
// slot mutates what was sent.
func exchangeElementWrite(ep comm.Endpoint, out [][]byte) {
	in := comm.Exchange(ep, comm.TagApp, out)
	out[0] = in[1] // slot replacement: ok
	out[1][0] = 9  // want `write to out\[1\]\[0\] after out was handed to a comm send`
}

// loopSendThenWrite: the per-element key dies with the induction
// variable, but the container mark survives the loop.
func loopSendThenWrite(ep comm.Endpoint, out [][]byte) {
	for i := 0; i < ep.NumHosts(); i++ {
		if i == ep.Rank() {
			continue
		}
		ep.Send(i, comm.TagApp, out[i])
	}
	out[0][0] = 1 // want `write to out\[0\]\[0\] after out was handed to a comm send`
}

// doubleBuffered is the sanctioned pattern: the generation flip ends
// tracking, and the next round's writes go to the other buffer.
func (h *host) doubleBuffered(ep comm.Endpoint) {
	ep.Send(1, comm.TagApp, h.bufs[h.gen])
	h.gen ^= 1
	h.bufs[h.gen] = h.bufs[h.gen][:0]
	h.bufs[h.gen] = append(h.bufs[h.gen], 42)
}

// reassignEndsTracking: a fresh buffer is a fresh round.
func reassignEndsTracking(ep comm.Endpoint, buf []byte) {
	ep.Send(1, comm.TagApp, buf)
	buf = make([]byte, 8)
	buf[0] = 1
}

// buildThenSend is the normal order: all writes happen before the send.
func buildThenSend(ep comm.Endpoint) {
	buf := make([]byte, 0, 8)
	buf = append(buf, 1, 2, 3)
	ep.Send(1, comm.TagApp, buf)
}

// nilPayloadIsFine: barriers send nil payloads.
func nilPayloadIsFine(ep comm.Endpoint) {
	ep.Send(1, comm.TagBarrier, nil)
	ep.Recv(1, comm.TagBarrier)
}

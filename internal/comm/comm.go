// Package comm provides the communication substrate for the simulated
// cluster: a per-host Endpoint abstraction with tagged message delivery,
// bulk all-to-all exchange, and log-depth collectives.
//
// Two transports are provided: an in-memory channel transport (the default
// for experiments, standing in for the paper's Omni-Path fabric) and a TCP
// transport over real sockets with length-prefixed binary framing. Both
// preserve per-sender FIFO order per tag, which the BSP engine relies on to
// keep consecutive collective operations from interleaving.
//
// Endpoints account for messages and bytes sent so experiments can report
// communication volume, broken down per tag (see StatsByTag). The TCP
// transport includes its frame header in the byte counts; the in-memory
// transport has no framing and counts payload bytes only.
//
// # Buffer ownership
//
// Send takes the payload by reference on the in-memory transport (the TCP
// transport copies it into the socket), so a sender that recycles payload
// buffers across BSP rounds must not overwrite a buffer that a receiver may
// still be reading. The contract the npm sync phases follow:
//
//   - Receivers finish reading a round's payloads before issuing the sends
//     of their next collective (recycle-after-round).
//   - Senders double-buffer: a send buffer is reused no sooner than two
//     rounds later. By then the receiver has completed the intervening
//     collective, which it could only do after every peer sent it — and
//     SPMD programs issue collectives in the same order on every host, so
//     those sends happen after the peers finished reading the earlier
//     round. Hence no receiver can still hold a reference.
//
// Payloads returned by Recv are owned by the receiver until its next Send
// on the in-memory transport may recycle them (i.e. treat them as valid
// only for the current round).
package comm

import (
	"fmt"
	"sync/atomic"
)

// Tag labels the kind of a message so different collective operations can
// share one endpoint without interference.
type Tag uint8

// Message tags used by the runtime. Distinct collectives running back to
// back may reuse a tag; per-sender FIFO ordering keeps them separate.
const (
	TagBarrier   Tag = iota // empty-payload synchronization
	TagRequest              // node-property request bitsets
	TagResponse             // node-property request responses
	TagReduce               // scatter of partial reduction values
	TagBroadcast            // master-to-mirror value broadcast
	TagApp                  // application-level payloads (reducers etc.)
	numTags
)

// NumTags is the number of distinct message tags (the length of the slices
// StatsByTag returns).
const NumTags = int(numTags)

// String names the tag for stats tables.
func (t Tag) String() string {
	switch t {
	case TagBarrier:
		return "barrier"
	case TagRequest:
		return "request"
	case TagResponse:
		return "response"
	case TagReduce:
		return "reduce"
	case TagBroadcast:
		return "broadcast"
	case TagApp:
		return "app"
	}
	return fmt.Sprintf("tag%d", uint8(t))
}

// Endpoint is one host's connection to the cluster fabric.
type Endpoint interface {
	// Rank returns this host's index in [0, NumHosts).
	Rank() int
	// NumHosts returns the number of hosts in the cluster.
	NumHosts() int
	// Send delivers payload to host `to` with the given tag. It must not
	// block indefinitely and may be called concurrently with Recv (but not
	// with other Sends to the same destination).
	Send(to int, tag Tag, payload []byte)
	// Recv blocks until a message with the given tag arrives from host
	// `from` and returns its payload. Messages from one sender with one
	// tag are delivered in send order.
	Recv(from int, tag Tag) []byte
	// Stats returns cumulative messages and bytes sent by this endpoint,
	// including any transport framing overhead.
	Stats() (messages, bytes int64)
	// StatsByTag returns cumulative messages and bytes sent, broken down
	// by message tag. Both slices have NumTags entries indexed by Tag.
	StatsByTag() (messages, bytes []int64)
	// Close releases transport resources.
	Close() error
}

// BufferedSender is optionally implemented by transports that can stage
// writes (the TCP transport's per-peer bufio.Writer). SendBuffered has
// Send's semantics except delivery may be deferred until FlushSends; a
// caller must flush before blocking on a Recv that the staged sends
// unblock, or the exchange deadlocks. ExchangeInto uses it to batch each
// round's frames into one syscall per peer, flushing at the round boundary.
type BufferedSender interface {
	SendBuffered(to int, tag Tag, payload []byte)
	FlushSends()
}

// counters is embedded by transports to implement Stats/StatsByTag.
type counters struct {
	messages [numTags]atomic.Int64
	bytes    [numTags]atomic.Int64
}

// account records one sent message of n on-wire bytes (payload plus any
// transport framing).
func (c *counters) account(tag Tag, n int) {
	c.messages[tag].Add(1)
	c.bytes[tag].Add(int64(n))
}

// Stats returns cumulative messages and bytes sent.
func (c *counters) Stats() (int64, int64) {
	var messages, bytes int64
	for t := range c.messages {
		messages += c.messages[t].Load()
		bytes += c.bytes[t].Load()
	}
	return messages, bytes
}

// StatsByTag returns cumulative messages and bytes sent per tag.
func (c *counters) StatsByTag() (messages, bytes []int64) {
	messages = make([]int64, numTags)
	bytes = make([]int64, numTags)
	for t := range c.messages {
		messages[t] = c.messages[t].Load()
		bytes[t] = c.bytes[t].Load()
	}
	return messages, bytes
}

// Exchange performs a bulk all-to-all: out[i] is sent to host i (out[self]
// is ignored and returned unchanged in the result), and the returned slice
// holds the payload received from each host. All hosts must call Exchange
// with the same tag. Sends are issued before receives, so the exchange
// cannot deadlock on any transport with buffered or asynchronous delivery.
func Exchange(ep Endpoint, tag Tag, out [][]byte) [][]byte {
	return ExchangeInto(ep, tag, out, nil)
}

// ExchangeInto is Exchange with a caller-owned receive slice, so BSP loops
// can avoid allocating one per round. If in has NumHosts entries it is
// filled and returned; otherwise a fresh slice is allocated. Payload
// buffers referenced by out are subject to the package's buffer-ownership
// contract (see the package comment): callers reusing them across rounds
// must double-buffer.
//
// On transports implementing BufferedSender the sends are staged and
// flushed once, at the send/receive boundary — one syscall per peer per
// round instead of one per frame.
func ExchangeInto(ep Endpoint, tag Tag, out, in [][]byte) [][]byte {
	n := ep.NumHosts()
	self := ep.Rank()
	if len(out) != n {
		panic(fmt.Sprintf("comm: Exchange out has %d entries for %d hosts", len(out), n))
	}
	if bs, buffered := ep.(BufferedSender); buffered {
		for i := 0; i < n; i++ {
			if i == self {
				continue
			}
			bs.SendBuffered(i, tag, out[i])
		}
		bs.FlushSends()
	} else {
		for i := 0; i < n; i++ {
			if i == self {
				continue
			}
			ep.Send(i, tag, out[i])
		}
	}
	if len(in) != n {
		in = make([][]byte, n)
	}
	in[self] = out[self]
	for i := 0; i < n; i++ {
		if i == self {
			continue
		}
		in[i] = ep.Recv(i, tag)
	}
	return in
}

// ExchangeFunc is the compute/communication-overlap variant of
// ExchangeInto: instead of taking pre-assembled payloads, it calls
// encode(to) once per peer and sends each payload the moment it is
// produced, so peer `to`'s bytes are in flight while `to+1`'s are still
// being encoded. encode is never called for self; in[self] is set to nil.
//
// Destinations are walked in rank-rotated order (self+1, self+2, …
// wrapping) so the cluster's first sends fan out across distinct receivers
// instead of all landing on host 0; receives walk the opposite rotation,
// which matches the order peers complete their sends to us. Payloads
// returned by encode follow the same buffer-ownership contract as
// ExchangeInto.
func ExchangeFunc(ep Endpoint, tag Tag, encode func(to int) []byte, in [][]byte) [][]byte {
	n := ep.NumHosts()
	self := ep.Rank()
	for i := 1; i < n; i++ {
		to := (self + i) % n
		ep.Send(to, tag, encode(to))
	}
	if len(in) != n {
		in = make([][]byte, n)
	}
	in[self] = nil
	for i := 1; i < n; i++ {
		from := (self - i + n) % n
		in[from] = ep.Recv(from, tag)
	}
	return in
}

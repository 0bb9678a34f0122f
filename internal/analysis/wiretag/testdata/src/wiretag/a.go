// Package wiretag exercises the §10 tag-discipline analyzer: switch
// exhaustiveness over annotated groups (the PR 3 missing-v2s near-miss),
// the default-does-not-count rule, cross-package groups, and the
// emitted-but-unhandled Finish check.
package wiretag

import "kimbap/internal/comm"

// The npm section-tag shape: three formats, one forgotten decoder arm.
//
//kimbap:wiregroup wire
const (
	wireV1  byte = 1
	wireV2  byte = 2
	wireV2S byte = 3
)

// decodeSection reproduces the near-miss: the v2s arm is missing and the
// default hides it behind a panic.
func decodeSection(tag byte) int {
	switch tag { // want `switch over wire group wire does not handle wireV2S`
	case wireV1:
		return 1
	case wireV2:
		return 2
	default:
		panic("bad tag")
	}
}

// decodeAll handles the whole group.
func decodeAll(tag byte) int {
	switch tag {
	case wireV1:
		return 1
	case wireV2:
		return 2
	case wireV2S:
		return 3
	}
	return 0
}

// encodeSection emits tags; all three appear in decodeAll's arms, so the
// Finish check stays quiet.
func encodeSection(buf []byte, sparse bool) []byte {
	if sparse {
		return append(buf, wireV2S)
	}
	return append(buf, wireV2)
}

// A sentinel named num* is a count, not a tag.
//
//kimbap:wiregroup frame
const (
	frameData byte = iota
	frameAck
	numFrames
)

// frameCounts may use the sentinel freely; the switch need not (and
// cannot meaningfully) handle it.
func frameCounts(f byte) int {
	counts := make([]int, numFrames)
	switch f {
	case frameData:
		counts[frameData]++
	case frameAck:
		counts[frameAck]++
	}
	return len(counts)
}

// The emit-side near-miss: opDel goes on the wire but no switch arm
// anywhere decodes it.
//
//kimbap:wiregroup op
const (
	opGet byte = 10
	opPut byte = 11
	opDel byte = 12
)

func emitOps(buf []byte) []byte {
	buf = append(buf, opGet)
	buf = append(buf, opDel) // want `wire tag opDel is emitted but no switch over group op handles it`
	return buf
}

func dispatchOps(b byte) int {
	switch b { // want `switch over wire group op does not handle opDel`
	case opGet:
		return 1
	case opPut:
		return 2
	}
	return 0
}

// isGet compares rather than emits: no Finish finding for opPut.
func isPut(b byte) bool { return b == opPut }

// tagCost switches over an upstream group: membership travels as facts
// from the comm package.
func tagCost(tag comm.Tag) int {
	switch tag { // want `switch over wire group Tag does not handle TagApp`
	case comm.TagBarrier:
		return 0
	case comm.TagRequest, comm.TagResponse:
		return 1
	case comm.TagReduce, comm.TagBroadcast:
		return 2
	}
	return 3
}

package cluster_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/opt"
)

// solverFrames are wire frames carrying the payload types internal/opt
// registers — the args of every kernel op, the block and consensus partials,
// the cd/gcg round delta — in the shapes a run produces, the nil delta and
// the empty block included. Importing opt also registers its codecs in this
// test binary, so FuzzDecodeFrame mutates into them.
func solverFrames() [][]byte {
	result := func(v any) cluster.Message {
		return cluster.Message{Kind: cluster.KindTaskResult, Result: &cluster.Result{
			TaskID: 5, Worker: 1, Op: "opt.cd", Payload: core.ReducePayload{Val: v, N: 3},
		}}
	}
	delta := func(dd opt.CDDelta) cluster.Message {
		return cluster.Message{Kind: cluster.KindFetchReply, FetchReply: &cluster.FetchReply{ID: "cd.delta", Version: 4, Value: dd}}
	}
	task := func(a opt.GradOpArgs) cluster.Message {
		return cluster.Message{Kind: cluster.KindRunTask, Task: &cluster.Task{ID: 6, Op: "opt.cd", Args: a, Partition: -1, Seed: 9}}
	}
	var frames [][]byte
	for _, m := range []cluster.Message{
		task(opt.GradOpArgs{
			BroadcastID: "cd.w", Version: 4, Parts: []int{0, 2}, Loss: "logistic", L2: 0.01, L1: 0.02,
			AuxID: "cd.delta", AuxVersion: 4, Block: seedBlock,
		}),
		task(opt.GradOpArgs{BroadcastID: "admm.z", Version: 2, Parts: []int{1}, Rho: 1, CGTol: 1e-8, CGIters: 200}),
		result(opt.BCDPartial{Block: seedBlock, G: la.Vec{1, 2, 3}, H: la.Vec{4, 5, 6}}),
		result(opt.BCDPartial{G: la.Vec{}, H: la.Vec{}}),
		result(opt.ADMMPartial{XPlusU: la.Vec{1, 2, 3}, PrimalSq: 0.5}),
		delta(opt.CDDelta{RunID: 2, Round: 8, Delta: &la.DeltaVec{N: 100, Idx: []int32{3, 40}, Val: []float64{0.5, -2}}}),
		delta(opt.CDDelta{RunID: 2}),
	} {
		frame, _, err := cluster.EncodeFrame(m, true)
		if err != nil {
			panic(err) // a codec is missing: nothing below can run
		}
		frames = append(frames, slices.Clone(frame))
	}
	return frames
}

// seedBlock encodes as the byte run 03 41 42 43, which hostileFrames finds.
var seedBlock = []int32{0x41, 0x42, 0x43}

// hostileFrames are solverFrames whose counts lie: a block, a vector or a
// delta that claims more entries than the frame holds, and a block partial
// whose gradient is shorter than its block.
func hostileFrames() [][]byte {
	fs := solverFrames()
	rewrite := func(frame, old, new []byte) []byte {
		body := frame[5:]
		i := bytes.Index(body, old)
		if i < 0 {
			panic("seed frame lost the byte run a hostile variant rewrites")
		}
		return cluster.WrapFrame(slices.Concat(body[:i], new, body[i+len(old):]))
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // uvarint 2^32-1
	return [][]byte{
		rewrite(fs[0], []byte{3, 0x41, 0x42, 0x43}, append(huge, 0x41, 0x42, 0x43)), // args: block count
		rewrite(fs[2], []byte{3, 0x41, 0x42, 0x43}, append(huge, 0x41, 0x42, 0x43)), // partial: block count
		rewrite(fs[2], []byte{3, 0x41, 0x42, 0x43}, []byte{2, 0x41, 0x42}),          // partial: block shorter than G and H
		rewrite(fs[4], []byte{1, 3}, append([]byte{1}, huge...)),                    // consensus vector: length
		rewrite(fs[5], []byte{2, 100, 2}, append([]byte{2, 100}, huge...)),          // round delta: nnz
	}
}

func init() {
	cluster.ExtraFuzzSeeds = append(solverFrames(), hostileFrames()...)
}

// TestSolverFramesDecodeOrRefuse: every well-formed solver frame decodes and
// encodes back to the same bytes; every hostile one is refused with an
// error — no panic, no allocation sized by the lie.
func TestSolverFramesDecodeOrRefuse(t *testing.T) {
	for i, frame := range solverFrames() {
		m, err := cluster.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("frame %d refused: %v", i, err)
		}
		again, _, err := cluster.EncodeFrame(m, true)
		if err != nil || !bytes.Equal(again, frame) {
			t.Errorf("frame %d changed across decode and encode (err %v)", i, err)
		}
	}
	for i, frame := range hostileFrames() {
		if _, err := cluster.DecodeFrame(frame); err == nil {
			t.Errorf("hostile frame %d decoded", i)
		}
	}
}

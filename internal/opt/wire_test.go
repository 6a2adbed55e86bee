package opt

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/la"
)

// wireTrip encodes a task result carrying payload as a wire frame and
// decodes it back.
func wireTrip(t *testing.T, payload any) any {
	t.Helper()
	m := cluster.Message{Kind: cluster.KindTaskResult, Result: &cluster.Result{
		TaskID: 3, Worker: 1, Op: GradOpName, Payload: payload,
	}}
	frame, _, err := cluster.EncodeFrame(m, true)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cluster.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	return back.Result.Payload
}

func wireRandVec(rng *rand.Rand, n int) la.Vec {
	v := la.NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func wireRandDelta(rng *rand.Rand, n, nnz int) *la.DeltaVec {
	d := &la.DeltaVec{N: n}
	step := n / (nnz + 1)
	if step < 1 {
		step = 1
	}
	for j := 0; j < n && len(d.Idx) < nnz; j += 1 + rng.Intn(step) {
		d.Idx = append(d.Idx, int32(j))
		d.Val = append(d.Val, rng.NormFloat64())
	}
	return d
}

func TestWireSagaPartialRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	orig := core.ReducePayload{
		Val: SagaPartial{Sum: wireRandVec(rng, 64), HistSum: wireRandVec(rng, 64)},
		N:   17,
	}
	got, ok := wireTrip(t, orig).(core.ReducePayload)
	if !ok {
		t.Fatal("reduce payload lost its type")
	}
	sp := got.Val.(SagaPartial)
	want := orig.Val.(SagaPartial)
	if got.N != orig.N || !la.Equal(sp.Sum, want.Sum, 0) || !la.Equal(sp.HistSum, want.HistSum, 0) {
		t.Fatal("SagaPartial did not survive the binary wire")
	}
}

func TestWireSagaDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	orig := SagaDelta{Sum: wireRandDelta(rng, 5000, 80), HistSum: wireRandDelta(rng, 5000, 40)}
	got, ok := wireTrip(t, core.ReducePayload{Val: orig, N: 9}).(core.ReducePayload)
	if !ok {
		t.Fatal("reduce payload lost its type")
	}
	sd := got.Val.(SagaDelta)
	for _, pair := range [][2]*la.DeltaVec{{sd.Sum, orig.Sum}, {sd.HistSum, orig.HistSum}} {
		if pair[0].N != pair[1].N || !reflect.DeepEqual(pair[0].Idx, pair[1].Idx) ||
			!reflect.DeepEqual(pair[0].Val, pair[1].Val) {
			t.Fatal("SagaDelta did not survive the binary wire")
		}
	}
}

func TestWireOpArgsRoundTrip(t *testing.T) {
	for _, args := range []GradOpArgs{
		{BroadcastID: "sgd.w", Version: 12, Frac: 0.25, Parts: []int{0, 3, 7}, Loss: "logistic"},
		{BroadcastID: "saga.w", Version: 4, Frac: 1, Parts: []int{1}, Loss: "least-squares", L2: 0.05, L1: 0.001},
		{BroadcastID: "w", Frac: 0.5},
		// the optional fields: svrg's anchor, a cd round (sorted block, delta
		// stamp), a bcd round (a block in draw order), the ADMM scalars
		{BroadcastID: "vr.w", Version: 9, Frac: 0.3, Parts: []int{0, 1}, AuxID: "vr.anchor", AuxVersion: 2},
		{BroadcastID: "cd.w", Version: 7, Parts: []int{2}, L2: 0.01, L1: 0.02, AuxID: "cd.delta", AuxVersion: 7, Block: []int32{1, 5, 199999}},
		{BroadcastID: "bcd.w", Version: 3, Parts: []int{0}, Block: []int32{7, 0, 3}},
		{BroadcastID: "admm.z", Version: 5, Parts: []int{1, 3}, Rho: 1.5, CGTol: 1e-8, CGIters: 200},
	} {
		m := cluster.Message{Kind: cluster.KindRunTask, Task: &cluster.Task{
			ID: 8, Op: GradOpName, Args: args, Partition: -1, Seed: 99, Dispatch: 5,
		}}
		frame, _, err := cluster.EncodeFrame(m, true)
		if err != nil {
			t.Fatal(err)
		}
		back, err := cluster.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Task.Args, args) {
			t.Fatalf("op args did not survive: %#v vs %#v", back.Task.Args, args)
		}
	}
}

// TestWireSolverPayloadsRoundTrip: the three value types the converted
// solvers put on a wire — block partials and consensus partials as task
// results, the cd/gcg round delta as a fetched broadcast value — come back
// bit for bit, the empty and nil shapes included.
func TestWireSolverPayloadsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, payload := range map[string]any{
		"bcd partial":       BCDPartial{Block: []int32{9, 2, 5}, G: wireRandVec(rng, 3), H: wireRandVec(rng, 3)},
		"bcd partial empty": BCDPartial{G: la.Vec{}, H: la.Vec{}},
		"admm partial":      ADMMPartial{XPlusU: wireRandVec(rng, 40), PrimalSq: 0.125},
	} {
		got, ok := wireTrip(t, core.ReducePayload{Val: payload, N: 4}).(core.ReducePayload)
		if !ok || got.N != 4 || !reflect.DeepEqual(got.Val, payload) {
			t.Errorf("%s did not survive the wire: %#v vs %#v", name, got.Val, payload)
		}
	}
	for name, dd := range map[string]CDDelta{
		"delta":       {RunID: 3, Round: 41, Delta: wireRandDelta(rng, 5000, 30)},
		"empty delta": {RunID: 3, Round: 42, Delta: &la.DeltaVec{N: 5000}},
		"nil delta":   {RunID: 4},
	} {
		m := cluster.Message{Kind: cluster.KindFetchReply, FetchReply: &cluster.FetchReply{ID: "cd.delta", Version: 8, Value: dd}}
		frame, _, err := cluster.EncodeFrame(m, true)
		if err != nil {
			t.Fatal(err)
		}
		back, err := cluster.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := back.FetchReply.Value.(CDDelta)
		same := ok && got.RunID == dd.RunID && got.Round == dd.Round && (got.Delta == nil) == (dd.Delta == nil)
		if same && dd.Delta != nil { // a decoded delta is pooled: compare contents, not capacity
			same = got.Delta.N == dd.Delta.N && slices.Equal(got.Delta.Idx, dd.Delta.Idx) && slices.Equal(got.Delta.Val, dd.Delta.Val)
		}
		if !same {
			t.Errorf("%s did not survive the wire: %#v vs %#v", name, back.FetchReply.Value, dd)
		}
	}
}

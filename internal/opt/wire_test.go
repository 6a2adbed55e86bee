package opt

import (
	"math/rand"
	"reflect"
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

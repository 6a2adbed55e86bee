package opt

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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

// TestWireRetiredSagaCodesRefused: payload codes 17 and 18 carried the
// two-sum SAGA payloads. A SAGA result is now a la.Vec or *la.DeltaVec, whose
// round trips TestCodecResultRoundTripDense and TestCodecResultRoundTripSparse
// (internal/cluster) pin, so a task-result frame naming either retired code
// must decode to an error, not a panic or a misread payload.
func TestWireRetiredSagaCodesRefused(t *testing.T) {
	m := cluster.Message{Kind: cluster.KindTaskResult, Result: &cluster.Result{
		TaskID: 3, Worker: 1, Op: SagaOpName,
		Payload: core.ReducePayload{Val: la.Vec{0.5, -2, 3}, N: 1000},
	}}
	frame, _, err := cluster.EncodeFrame(m, true)
	if err != nil {
		t.Fatal(err)
	}
	// the reduce wrapper: code 16, varint N = 1000, not-empty; the inner
	// value's code follows
	wrapper := []byte{16, 0xd0, 0x0f, 0}
	at := bytes.Index(frame, wrapper)
	if at < 0 {
		t.Fatal("encoded result lost its reduce wrapper")
	}
	for _, code := range []byte{17, 18} {
		bad := slices.Clone(frame)
		bad[at+len(wrapper)] = code
		if _, err := cluster.DecodeFrame(bad); err == nil || !strings.Contains(err.Error(), "unknown payload code") {
			t.Errorf("a result frame with retired payload code %d: err %v, want an unknown-code error", code, err)
		}
	}
}

func TestWireOpArgsRoundTrip(t *testing.T) {
	for _, args := range []GradOpArgs{
		{BroadcastID: "sgd.w", Version: 12, Frac: 0.25, Parts: []int{0, 3, 7}, Loss: "logistic"},
		{BroadcastID: "saga.w", Version: 4, Frac: 1, Parts: []int{1}, Loss: "least-squares", L2: 0.05, L1: 0.001},
		{BroadcastID: "w", Frac: 0.5},
		// the optional fields: svrg's anchor version, a cd round (sorted
		// block, delta stamp), a cd per-partial dispatch (no stamp), the ADMM
		// scalars
		{BroadcastID: "vr.w", Version: 9, Frac: 0.3, Parts: []int{0, 1}, AuxVersion: 2},
		{BroadcastID: "cd.w", Version: 7, Parts: []int{2}, L2: 0.01, L1: 0.02, AuxID: "cd.delta", AuxVersion: 7, Block: []int32{1, 5, 199999}},
		{BroadcastID: "cd.w", Version: 3, Parts: []int{0}, Block: []int32{0, 3, 7}},
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
// results, the cd round delta as a fetched broadcast value — come back
// bit for bit, the empty and nil shapes included.
func TestWireSolverPayloadsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, payload := range map[string]any{
		"cd partial":       CDPartial{Block: []int32{2, 5, 9}, G: wireRandVec(rng, 3), H: wireRandVec(rng, 3)},
		"cd partial empty": CDPartial{G: la.Vec{}, H: la.Vec{}},
		"admm partial":     ADMMPartial{XPlusU: wireRandVec(rng, 40), PrimalSq: 0.125},
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

package store

import (
	"fmt"
	"reflect"
	"testing"
)

// foldOf folds records into a zero state.
func foldOf(recs []*Record) JobState {
	var s JobState
	for _, r := range recs {
		s.Apply(r)
	}
	return s
}

// TestJobStateTransitionTable checks Apply against the whole phase × record
// type table, written out by hand: the entry is the phase the pair leads
// to, or "" when the pair is illegal and must leave the state untouched.
func TestJobStateTransitionTable(t *testing.T) {
	phases := []Phase{PhaseNone, PhaseQueued, PhaseRunning, PhasePreempted, PhaseDone, PhaseFailed, PhaseCanceled}
	names := map[string]Phase{
		"queued": PhaseQueued, "running": PhaseRunning, "preempted": PhasePreempted,
		"done": PhaseDone, "failed": PhaseFailed, "canceled": PhaseCanceled,
	}
	types := []Type{
		TypeSubmitted, TypeDispatched, TypeCheckpointed, TypePreempted, TypeDone,
		TypeFailed, TypeCanceled, TypeClaimed, TypeRenewed, TypeReleased,
	}
	// rows in phases order, columns in types order
	want := [][]string{
		/* none      */ {"queued", "", "", "", "", "", "", "", "", ""},
		/* queued    */ {"queued", "running", "running", "preempted", "done", "failed", "canceled", "queued", "queued", "queued"},
		/* running   */ {"", "running", "running", "preempted", "done", "failed", "canceled", "running", "running", "running"},
		/* preempted */ {"", "running", "preempted", "preempted", "done", "failed", "canceled", "preempted", "preempted", "preempted"},
		/* done      */ {"", "", "", "", "", "", "", "", "", ""},
		/* failed    */ {"", "", "", "", "", "", "", "", "", ""},
		/* canceled  */ {"", "", "", "", "", "", "", "", "", ""},
	}
	if len(types) != len(typeNames) {
		t.Fatalf("table covers %d record types, the codec knows %d", len(types), len(typeNames))
	}
	for pi, p := range phases {
		for ti, typ := range types {
			before := JobState{Phase: p, JobSeq: 7, Updates: 40, Detail: "kept"}
			s := before
			ok := s.Apply(&Record{Type: typ, Job: "j", Time: 5, Updates: 60, DispatchSeq: 3, Owner: "a"})
			to := want[pi][ti]
			switch {
			case to == "" && (ok || !reflect.DeepEqual(s, before)):
				t.Errorf("phase %d × %s: illegal pair applied (ok=%v, state %+v)", p, typ, ok, s)
			case to != "" && (!ok || s.Phase != names[to]):
				t.Errorf("phase %d × %s: got phase %d ok=%v, want %s", p, typ, s.Phase, ok, to)
			}
		}
	}
	var s JobState
	if s.Apply(&Record{Type: Type(99), Job: "j"}) || (&JobState{Phase: PhaseRunning}).Apply(&Record{Type: Type(0)}) {
		t.Error("unknown record type applied")
	}
}

// TestJobStateFoldFields pins what each record contributes beyond the
// phase: newest checkpoint pointer wins, the update clock only moves
// forward, preempted records count, the terminal record clears the pointer.
func TestJobStateFoldFields(t *testing.T) {
	s := foldOf([]*Record{
		{Type: TypeSubmitted, Job: "j", Time: 10, JobSeq: 3, Spec: []byte(`{"a":1}`)},
		{Type: TypeClaimed, Job: "j", Owner: "a", Epoch: 1},
		{Type: TypeDispatched, Job: "j", Owner: "a", Epoch: 1},
		{Type: TypeCheckpointed, Job: "j", Updates: 200, DispatchSeq: 9, Owner: "a", Epoch: 1},
		{Type: TypePreempted, Job: "j", Updates: 300, DispatchSeq: 12, Owner: "a", Epoch: 1},
		{Type: TypeReleased, Job: "j", Owner: "a", Epoch: 1},
		{Type: TypeDispatched, Job: "j", Updates: 300, Owner: "b", Epoch: 2},
		{Type: TypeCheckpointed, Job: "j", Updates: 250, DispatchSeq: 14, Owner: "b", Epoch: 2},
	})
	want := JobState{
		Phase: PhaseRunning, JobSeq: 3, Spec: []byte(`{"a":1}`), Submitted: 10,
		Updates: 300, HasCp: true, CpSeq: 14, CpUpdates: 250, Preemptions: 1, Owner: "b",
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("fold\n got %+v\nwant %+v", s, want)
	}
	s.Apply(&Record{Type: TypeDone, Job: "j", Time: 99, Updates: 500, FinalError: 0.25, HasFinal: true, Owner: "b"})
	want.Phase, want.Updates, want.Finished = PhaseDone, 500, 99
	want.HasCp, want.CpSeq, want.CpUpdates = false, 0, 0
	want.FinalError, want.HasFinal = 0.25, true
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("terminal fold\n got %+v\nwant %+v", s, want)
	}
	if got := foldOf(s.Records("j")); !reflect.DeepEqual(got, s) {
		t.Fatalf("fold(Records(s))\n got %+v\nwant %+v", got, s)
	}
}

// fuzzRecords decodes arbitrary bytes into a record sequence for one job,
// six bytes a record: every type (two invalid ones included), small signed
// clocks, three owners, finite final errors.
func fuzzRecords(data []byte) []*Record {
	var recs []*Record
	for ; len(data) >= 6; data = data[6:] {
		rec := &Record{
			Type:        Type(data[0] % 12),
			Job:         "j",
			Time:        int64(data[1]),
			Updates:     int64(int8(data[2])) * 10,
			DispatchSeq: int64(data[3]),
			JobSeq:      int64(int8(data[4]) / 16),
			Owner:       []string{"", "a", "b"}[data[5]%3],
			HasFinal:    data[5]&4 != 0,
			FinalError:  float64(int8(data[5])) / 8,
		}
		if data[5]&8 != 0 {
			rec.Detail = fmt.Sprintf("detail-%d", data[4])
		}
		if rec.Type == TypeSubmitted {
			rec.Spec = []byte(fmt.Sprintf(`{"n":%d}`, data[3]))
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzJobStateFold drives the fold with arbitrary record sequences: Apply
// never panics, an illegal pair changes nothing, a terminal phase never
// changes again, and after every record fold(Records(s)) == s.
func FuzzJobStateFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 10, 0, 0, 3, 0, 2, 11, 0, 0, 0, 1, 3, 12, 20, 9, 0, 1, 4, 13, 30, 12, 0, 1, 2, 14, 30, 0, 0, 2, 5, 15, 50, 0, 0, 6})
	f.Add([]byte{2, 1, 1, 1, 1, 1, 1, 2, 0, 4, 0, 0, 4, 3, 5, 6, 48, 9, 7, 4, 0, 0, 0, 8, 2, 5, 9, 0, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 6, 9, 255, 0, 0, 13, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 7, 0, 0, 3, 0, 5, 1, 0, 0, 3, 0, 250, 2, 0, 0, 8, 0, 0, 0, 0, 1, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s JobState
		for i, rec := range fuzzRecords(data) {
			before := s
			ok := s.Apply(rec)
			if !ok && !reflect.DeepEqual(s, before) {
				t.Fatalf("record %d (%s): refused but state changed\n from %+v\n   to %+v", i, rec.Type, before, s)
			}
			if before.Phase.Terminal() && (ok || !reflect.DeepEqual(s, before)) {
				t.Fatalf("record %d (%s): terminal phase %d moved to %+v", i, rec.Type, before.Phase, s)
			}
			if got := foldOf(s.Records("j")); !reflect.DeepEqual(got, s) {
				t.Fatalf("after record %d (%s): fold(Records(s)) != s\n got %+v\nwant %+v\nrecords %v",
					i, rec.Type, got, s, s.Records("j"))
			}
		}
	})
}

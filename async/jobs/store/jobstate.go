package store

// Phase is a job's position in its lifecycle as its records prove it.
type Phase byte

// The phases of the lifecycle fold. PhaseNone is a job whose submitted
// record has not been seen; the three terminal phases absorb every later
// record, and are declared in the order of their record types (Apply and
// Records convert between the two by offset).
const (
	PhaseNone Phase = iota
	PhaseQueued
	PhaseRunning
	PhasePreempted
	PhaseDone
	PhaseFailed
	PhaseCanceled
)

// Terminal reports whether the phase is final.
func (p Phase) Terminal() bool { return p >= PhaseDone }

// JobState is what the log can prove about one job: the fold of its
// records. It is the single account of "what a job's records mean" — live
// commits, boot replay, tail mirroring and both compactors all go through
// Apply, and both compactors write Records.
type JobState struct {
	Phase Phase

	// From the submitted record.
	JobSeq    int64
	Spec      []byte
	Submitted int64 // unix nanoseconds

	// Updates is the highest update clock any record carried.
	Updates int64
	// The checkpoint pointer: the newest checkpointed or preempted record
	// names the spill to resume from. Cleared by the terminal record (the
	// spills of a finished job are dropped).
	HasCp     bool
	CpSeq     int64
	CpUpdates int64
	// Preemptions counts preempted records.
	Preemptions int

	// From the terminal record.
	Detail     string
	FinalError float64
	HasFinal   bool
	Finished   int64 // unix nanoseconds

	// Owner is the replica that stamped the newest owned lifecycle record.
	Owner string
}

// Apply folds one record into the state and reports whether the pair
// (phase, record type) is a legal transition — the table is in the package
// doc. An illegal pair (anything but submitted on an unknown job, a
// submitted on a job that has moved, anything at all on a terminal job)
// leaves the state untouched.
func (s *JobState) Apply(rec *Record) bool {
	if rec.Type == TypeSubmitted {
		// opens the job; a repeat before the job has moved supersedes the
		// first (Submit reuses the ID when its append fails, and a failed
		// append may still have reached the disk)
		if s.Phase != PhaseNone && s.Phase != PhaseQueued {
			return false
		}
		*s = JobState{Phase: PhaseQueued, JobSeq: rec.JobSeq, Spec: rec.Spec, Submitted: rec.Time}
		return true
	}
	if s.Phase == PhaseNone || s.Phase.Terminal() {
		return false
	}
	switch rec.Type {
	case TypeDispatched:
		s.Phase = PhaseRunning
	case TypeCheckpointed:
		if s.Phase == PhaseQueued {
			s.Phase = PhaseRunning // a capture proves the job ran
		}
		s.HasCp, s.CpSeq, s.CpUpdates = true, rec.DispatchSeq, rec.Updates
	case TypePreempted:
		s.Phase = PhasePreempted
		s.HasCp, s.CpSeq, s.CpUpdates = true, rec.DispatchSeq, rec.Updates
		// a compacted record carries the count so far in JobSeq, which keeps
		// re-folding a rewritten log over a mirror idempotent; a live record
		// leaves it zero and counts one more
		n := s.Preemptions + 1
		if rec.JobSeq > 0 {
			n = int(rec.JobSeq)
		}
		if n > s.Preemptions {
			s.Preemptions = n
		}
	case TypeDone, TypeFailed, TypeCanceled:
		s.Phase = PhaseDone + Phase(rec.Type-TypeDone)
		s.HasCp, s.CpSeq, s.CpUpdates = false, 0, 0
		s.Detail, s.Finished = rec.Detail, rec.Time
		s.HasFinal, s.FinalError = rec.HasFinal, 0
		if rec.HasFinal {
			s.FinalError = rec.FinalError
		}
	case TypeClaimed, TypeRenewed, TypeReleased:
		return true // ownership is the lease table's account, not the job's
	default:
		return false
	}
	if rec.Updates > s.Updates {
		s.Updates = rec.Updates
	}
	if rec.Owner != "" {
		s.Owner = rec.Owner
	}
	return true
}

// Records returns the minimal records whose fold reproduces the state:
// folding Records(job) into a zero JobState yields s again. This is what a
// compaction writes for the job.
func (s *JobState) Records(job string) []*Record {
	if s.Phase == PhaseNone {
		return nil
	}
	rec := func(typ Type) *Record {
		return &Record{Type: typ, Job: job, Time: s.Submitted, Owner: s.Owner}
	}
	sub := rec(TypeSubmitted)
	sub.Owner, sub.JobSeq, sub.Spec = "", s.JobSeq, s.Spec
	recs := []*Record{sub}
	// the pointer rides the preempted record when there is one (its count
	// rides JobSeq), a checkpointed record otherwise; dispatched carries the
	// update clock and, placed last, the running phase
	pointer := func(typ Type) {
		r := rec(typ)
		if s.HasCp {
			r.Updates, r.DispatchSeq = s.CpUpdates, s.CpSeq
		}
		if typ == TypePreempted {
			r.JobSeq = int64(s.Preemptions)
		}
		recs = append(recs, r)
	}
	dispatched := func() {
		r := rec(TypeDispatched)
		r.Updates = s.Updates
		recs = append(recs, r)
	}
	switch {
	case s.Phase.Terminal():
		if s.Preemptions > 0 {
			pointer(TypePreempted)
		}
		r := rec(TypeDone + Type(s.Phase-PhaseDone))
		r.Time, r.Updates, r.Detail = s.Finished, s.Updates, s.Detail
		r.FinalError, r.HasFinal = s.FinalError, s.HasFinal
		recs = append(recs, r)
	case s.Phase == PhasePreempted:
		if s.Updates != s.CpUpdates {
			dispatched()
		}
		pointer(TypePreempted)
	case s.Phase == PhaseRunning:
		if s.Preemptions > 0 {
			pointer(TypePreempted)
		}
		dispatched()
		if s.HasCp && s.Preemptions == 0 {
			pointer(TypeCheckpointed)
		}
	}
	return recs
}

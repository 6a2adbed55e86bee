// Package store is the durability layer under the jobs scheduler: a
// write-ahead log of job lifecycle transitions plus per-job checkpoint
// spill files, so an asyncd restart — graceful or kill -9 — reconstructs
// the scheduler instead of losing every queued, running, and preempted
// job.
//
// # Append-before-ack invariant
//
// Every job lifecycle transition (submitted, dispatched, checkpointed,
// preempted, done, failed, canceled) is appended — and, unless the store
// was opened with NoSync, fsynced — BEFORE the transition is acknowledged
// to the caller. Submit in particular returns a job ID only after the
// submitted record is durable: a job the client was told about can never
// silently vanish across a restart. Transitions that have no external
// acknowledgement (dispatch, periodic checkpoints) are appended before
// the scheduler acts on them, so replay can only ever UNDER-state
// progress, never invent it: a crash between an action and its record
// replays the older state, which re-runs work rather than losing it.
//
// # Log layout
//
// The log is a single file (wal.log) of length-prefixed records in the
// wire-codec frame format:
//
//	[u32 BE frame length L][1-byte format][body][u32 BE CRC-32 (IEEE) of format+body]
//
// where L counts everything after the length prefix (format + body +
// CRC). The body is the compact binary encoding of one Record
// (cluster.BinWriter: varints, length-validated strings). The file opens
// with the magic "AWL1". Decode is length-validated before any
// allocation, and a record whose CRC, length, or body fails to verify
// ends the replay: Open recovers the longest valid prefix, truncates the
// torn tail, and continues appending from there — a kill -9 mid-append
// costs exactly the un-acked suffix, never the log.
//
// Checkpoints are not inlined in the log (they are ~dim-sized). Each
// capture spills to its own file, cp-<job>-<dispatchSeq>.ckpt, written
// to a temp name, fsynced, and renamed into place before the
// checkpointed record is appended; the record carries the dispatch
// sequence that keys the file. Replay therefore only trusts checkpoint
// files the log mentions — a spill that crashed before its record is
// ignored, and the job resumes from the previous durable capture.
//
// # One lifecycle fold, and the compaction contract
//
// What a job's records mean is decided in one place. JobState.Apply folds
// a record into what the log can prove about the job (phase, submission
// ordinal and time, spec, update clock, checkpoint pointer, preemption
// count, terminal detail, last owner); JobState.Records is its inverse,
// the minimal records whose fold is that state. Live commits, boot replay,
// tail mirroring, the scheduler's compaction snapshot and a replica handle's
// self-compaction all call this pair and nothing else interprets a record
// type. The whole transition table, phase × record type:
//
//	            submitted  dispatched  checkpointed  preempted  done/failed/canceled  claimed/renewed/released
//	none        queued     ✗           ✗             ✗          ✗                     ✗
//	queued      queued     running     running       preempted  terminal              (unchanged)
//	running     ✗          running     running       preempted  terminal              (unchanged)
//	preempted   ✗          running     preempted     preempted  terminal              (unchanged)
//	terminal    ✗          ✗           ✗             ✗          ✗                     ✗
//
// ✗ is an illegal pair: Apply returns false and the state is untouched, so
// terminal phases absorb everything. Among the live phases the fold is
// lenient — crash, retry and adoption histories legally re-dispatch a
// running job, and a submitted repeated before the job moved (a
// resubmission whose first ack was lost) supersedes the first. The newest checkpointed or preempted record is the
// checkpoint pointer (a terminal record clears it), the update clock only
// moves forward, and preempted records count (a compacted one carries the
// count so far in JobSeq). The law tying the pair together, fuzzed:
//
//	fold(Records(s)) == s
//
// Compaction rewrites the log to Records(s) for every job it keeps (plus
// the lease table), through a temp file, fsync and atomic rename — a crash
// leaves either log, never a mix — and then deletes the spills of jobs the
// new log no longer names. By the law a compaction changes no reader's
// view and compacting twice changes nothing. A single-owner scheduler
// compacts to the jobs it holds every Config.CompactEvery appends and once
// after recovery, so jobs past its retention limit leave the log; a replica
// handle compacts itself from its own folds (no replica sees the whole
// cluster), bounding terminal history by SharedOptions.RetainTerminal.
//
// # Leases and epoch fencing
//
// Multi-replica coordination rides on three more record types — claimed,
// renewed, released — carrying an Owner, a per-job Epoch, and an
// ExpiresAt deadline (the v2 binary record format; v1 logs replay
// unchanged). A replica claims a queued job before dispatching it: the
// claim is a CAS that fails with ErrLeaseHeld while another replica's
// lease is live, and succeeds with an epoch strictly above every epoch
// the job has ever seen. That high-water mark is the fence: any
// lifecycle append carrying a stale epoch — or no owner at all while a
// live foreign lease exists — is rejected with ErrFenced, so a replica
// that lost its lease can never retroactively finalize the job.
//
// Every WAL handle keeps each job's fold beside the lease table, under the
// lock that orders the log, and a job
// whose fold is terminal refuses every further claim and append with
// ErrFenced: a peer still holding a stale queued copy of a canceled job
// cannot claim, run and finish it a second time. That is where "exactly
// one terminal record" is enforced for more than one replica.
//
// # One log, two ways of opening it, behind one seam
//
// WAL is the only file store. Every handle serializes mutations through
// flock(2) on wal.lock, keeps a cached view of the log and refreshes it
// under the lock by scanning the tail it has not yet seen; a compaction by
// any handle is detected by inode comparison and bumps a generation
// counter, so ReplaySince(Watermark{Gen, Seq}) lets a scheduler consume
// exactly the records that are new to it. Torn tails are truncated under
// the lock by whichever handle finds them — a record half-written by a
// killed process costs that process its un-acked suffix and nothing else,
// and a claim torn mid-append is dropped on recovery (the job stays
// claimable; no lease leaks from a partial record).
//
// Open hands out the directory's sole owner, OpenShared one of any number
// of replicas. Which it is, is enforced rather than assumed: a handle holds
// flock on wal.owner for its whole life — exclusive for a sole owner,
// shared for a replica, never waited for — so a second sole owner, or a
// sole owner beside replicas in either order, fails at open with an error
// naming the directory (before the lock, two sole owners each wrote at
// their own offset and acknowledged records vanished). Close releases it,
// and so do Kill and the torn-append failpoint: a dead process holds no
// locks. The lock is what makes the differences between the two sound, and
// they are four — three one-line tests of how the handle was opened, and
// one argument Open passes:
//
//   - the owner lock's mode;
//   - Compact: a sole owner sees every job, so it installs the caller's
//     snapshot and the scheduler's Retention decides what leaves the log; a
//     replica's caller misses every job its peers own, so a replica ignores
//     the snapshot it is handed — installing it would destroy cluster state
//     — and installs the one its own folds derive;
//   - self-compaction inside Append (SharedOptions.CompactEvery) is a
//     replica's; a sole owner's scheduler drives compaction
//     (Config.CompactEvery) and Open turns the store's own off;
//   - the sweep of orphaned *.tmp files at open is a sole owner's: only it
//     knows no writer is mid-rename.
//
// Everything else — recovery, the lock-and-refresh every operation starts
// with (a sole owner takes no shortcut around it; it costs ≈ 3 µs an
// append), fence and lifecycle fold, append and unwind, spills, failpoints,
// counters — is one code path.
//
// The scheduler depends only on the Store interface (append / replay /
// checkpoint spill / compact / lease / tail replay) and the JobState fold.
// WAL is its one implementation, and tests run on it too: a sole owner on a
// temp directory, or one OpenShared handle per replica on a shared one.
// faulty.Wrap layers deterministic fault injection over a WAL handle.
package store

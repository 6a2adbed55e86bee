package opt

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/la"
)

// Checkpoint is the driver-side state needed to resume an optimization run:
// the model, the logical update clock, and whatever solver-specific driver
// state the algorithm carries (SAGA's running history average, momentum
// velocity, SVRG's epoch anchor and full gradient, ADMM's per-worker
// contributions, BCD's dispatch count for RNG replay). Lazily deferred
// update terms are always settled before export, so a checkpoint never
// stores drift state. Worker-side state — broadcast caches, SAGA history
// shards, ADMM primal/dual iterates — is soft state: a resumed run re-seeds
// it naturally, so checkpoints stay small and the restore path needs no
// worker cooperation (the same philosophy as Spark's lineage-based
// recovery). The one coupling is SAGA's history average: it is the mean of
// the shard-stored gradients, so Import restores it only on a same-context
// resume and restarts it at zero after an engine reset (see sagaState).
type Checkpoint struct {
	// Algorithm is the registry name of the solver that produced the
	// checkpoint ("asgd", "saga", ...), resolvable by the solver registry.
	Algorithm string
	W         la.Vec
	Updates   int64
	AvgHist   la.Vec // nil for methods without history (legacy field)

	// Vecs holds named solver-specific dense state beyond AvgHist (momentum
	// velocity, SVRG mu/anchor, ADMM contributions). Every entry has the
	// model's dimension.
	Vecs map[string]la.Vec
	// Ints holds named solver-specific counters (BCD dispatch count, the
	// round and dispatch-sequence positions).
	Ints map[string]int64

	// historyAttached is runtime-only (never serialized): the driver
	// runtime sets it when the resuming run still holds the worker-side
	// state this capture was taken against (same engine, no ResetRun in
	// between). Solvers whose driver state is coupled to worker shards
	// (SAGA's avgHist ↔ per-sample history tables) consult it on Import.
	historyAttached bool
}

// HistoryAttached reports whether worker-side run state survived between
// capture and resume (see the field doc).
func (c *Checkpoint) HistoryAttached() bool { return c.historyAttached }

// SetVec stores an independent copy of v under name (nil v is skipped).
func (c *Checkpoint) SetVec(name string, v la.Vec) {
	if v == nil {
		return
	}
	if c.Vecs == nil {
		c.Vecs = map[string]la.Vec{}
	}
	c.Vecs[name] = v.Clone()
}

// Vec returns the named vector, nil when absent.
func (c *Checkpoint) Vec(name string) la.Vec { return c.Vecs[name] }

// SetInt stores a named counter.
func (c *Checkpoint) SetInt(name string, v int64) {
	if c.Ints == nil {
		c.Ints = map[string]int64{}
	}
	c.Ints[name] = v
}

// Int returns the named counter (0 when absent).
func (c *Checkpoint) Int(name string) int64 { return c.Ints[name] }

// Validate checks structural consistency.
func (c *Checkpoint) Validate() error {
	if len(c.W) == 0 {
		return fmt.Errorf("opt: checkpoint has empty model")
	}
	if c.Updates < 0 {
		return fmt.Errorf("opt: checkpoint has negative clock %d", c.Updates)
	}
	if c.AvgHist != nil && len(c.AvgHist) != len(c.W) {
		return fmt.Errorf("opt: checkpoint history dim %d != model dim %d", len(c.AvgHist), len(c.W))
	}
	for name, v := range c.Vecs {
		if len(v) != len(c.W) {
			return fmt.Errorf("opt: checkpoint vec %q dim %d != model dim %d", name, len(v), len(c.W))
		}
	}
	return nil
}

// checkpointMagic opens every checkpoint; data that does not start with it
// is not a checkpoint.
var checkpointMagic = []byte("ACP1")

// SaveCheckpoint writes the checkpoint in the compact binary format (the
// same varint/raw-float encoding the wire codec uses).
func SaveCheckpoint(w io.Writer, c *Checkpoint) error {
	defer func(start time.Time) { optCpSave.ObserveSince(start) }(time.Now())
	if err := c.Validate(); err != nil {
		return err
	}
	var bw cluster.BinWriter
	bw.PutString(c.Algorithm)
	bw.PutVarint(c.Updates)
	if err := bw.PutValue(c.W); err != nil {
		return fmt.Errorf("opt: save checkpoint: %w", err)
	}
	var hist any
	if c.AvgHist != nil {
		hist = c.AvgHist
	}
	if err := bw.PutValue(hist); err != nil {
		return fmt.Errorf("opt: save checkpoint: %w", err)
	}
	putVecMap(&bw, c.Vecs)
	bw.PutUvarint(uint64(len(c.Ints)))
	for _, k := range sortedKeys(c.Ints) {
		bw.PutString(k)
		bw.PutVarint(c.Ints[k])
	}
	if _, err := w.Write(checkpointMagic); err != nil {
		return fmt.Errorf("opt: save checkpoint: %w", err)
	}
	if _, err := w.Write(bw.Bytes()); err != nil {
		return fmt.Errorf("opt: save checkpoint: %w", err)
	}
	return nil
}

func putVecMap(bw *cluster.BinWriter, m map[string]la.Vec) {
	bw.PutUvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		bw.PutString(k)
		// vectors ride the builtin la.Vec payload encoding
		_ = bw.PutValue(m[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. The body
// decodes through the length-validated BinReader — a corrupt length field
// fails before any outsized allocation.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	defer func(start time.Time) { optCpLoad.ObserveSince(start) }(time.Now())
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("opt: load checkpoint: %w", err)
	}
	if !bytes.HasPrefix(data, checkpointMagic) {
		return nil, fmt.Errorf("opt: load checkpoint: missing %q magic", checkpointMagic)
	}
	c, err := decodeBinaryCheckpoint(data[len(checkpointMagic):])
	if err != nil {
		return nil, fmt.Errorf("opt: load checkpoint: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func decodeBinaryCheckpoint(body []byte) (*Checkpoint, error) {
	br := cluster.NewBinReader(body)
	c := &Checkpoint{
		Algorithm: br.String(),
		Updates:   br.Varint(),
	}
	var err error
	if c.W, err = readVec(br, true); err != nil {
		return nil, err
	}
	if c.AvgHist, err = readVec(br, false); err != nil {
		return nil, err
	}
	if n := br.Length(2); n > 0 { // ≥1 byte key length + 1 byte payload code
		c.Vecs = make(map[string]la.Vec, n)
		for i := 0; i < n && br.Err() == nil; i++ {
			k := br.String()
			v, err := readVec(br, true)
			if err != nil {
				return nil, err
			}
			c.Vecs[k] = v
		}
	}
	if n := br.Length(2); n > 0 {
		c.Ints = make(map[string]int64, n)
		for i := 0; i < n && br.Err() == nil; i++ {
			k := br.String()
			c.Ints[k] = br.Varint()
		}
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// readVec decodes one payload value and asserts it is a vector (or nil when
// allowed). Decoded vectors come from the la pool; a checkpoint retains its
// own for its lifetime and never recycles them.
func readVec(br *cluster.BinReader, required bool) (la.Vec, error) {
	v, err := br.Value()
	if err != nil {
		return nil, err
	}
	if v == nil {
		if required {
			return nil, fmt.Errorf("opt: encoded vector missing")
		}
		return nil, nil
	}
	w, ok := v.(la.Vec)
	if !ok {
		return nil, fmt.Errorf("opt: encoded vector decoded as %T", v)
	}
	return w, nil
}

// FromResult builds a checkpoint from a finished run.
func FromResult(res *Result, updates int64) *Checkpoint {
	return &Checkpoint{
		Algorithm: res.Trace.Algorithm,
		W:         res.W.Clone(),
		Updates:   updates,
	}
}

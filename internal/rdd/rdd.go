package rdd

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/la"
)

// Point is one labelled training example, the element type of the base RDD.
// GlobalIndex is the row's index in the full dataset — SAGA-style history
// tables key on it.
type Point struct {
	GlobalIndex int
	X           la.SparseVec
	Y           float64
}

// ComputeFunc materializes the contents of one partition of an RDD on a
// worker. It is the lineage: derived RDDs wrap their parent's compute, so a
// recovered partition is rebuilt by re-running the whole chain from the
// base partition. The seed makes randomized transformations (Sample)
// reproducible per task.
type ComputeFunc[T any] func(env *cluster.Env, part int, seed int64) ([]T, error)

// RDD is a lazily evaluated, partitioned dataset in the style of Spark.
// Transformations build new RDDs; actions trigger bulk-synchronous
// execution via the driver Context.
type RDD[T any] struct {
	ctx     *Context
	nParts  int
	compute ComputeFunc[T]
}

// NewRDD builds an RDD from an explicit compute function (advanced use;
// most callers start from Context.Distribute).
func NewRDD[T any](ctx *Context, nParts int, compute ComputeFunc[T]) *RDD[T] {
	return &RDD[T]{ctx: ctx, nParts: nParts, compute: compute}
}

// basePointRDD reads installed dataset partitions into Points.
func basePointRDD(ctx *Context, nParts int) *RDD[Point] {
	return NewRDD(ctx, nParts, func(env *cluster.Env, part int, seed int64) ([]Point, error) {
		p, err := env.Partition(part)
		if err != nil {
			return nil, err
		}
		pts := make([]Point, p.NumRows())
		for i := range pts {
			pts[i] = Point{GlobalIndex: p.GlobalRow(i), X: p.X.Row(i), Y: p.Y[i]}
		}
		return pts, nil
	})
}

// Context returns the driver context the RDD is bound to.
func (r *RDD[T]) Context() *Context { return r.ctx }

// NumPartitions returns the RDD's partition count.
func (r *RDD[T]) NumPartitions() int { return r.nParts }

// Compute exposes the lineage function (used by the ASYNC engine to embed
// RDD computation inside asynchronous tasks).
func (r *RDD[T]) Compute() ComputeFunc[T] { return r.compute }

// Map is the classic element-wise transformation. (Top-level function
// because Go methods cannot introduce type parameters.)
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	parent := r.compute
	return NewRDD(r.ctx, r.nParts, func(env *cluster.Env, part int, seed int64) ([]U, error) {
		in, err := parent(env, part, seed)
		if err != nil {
			return nil, err
		}
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return out, nil
	})
}

// Filter keeps the elements satisfying pred.
func (r *RDD[T]) Filter(pred func(T) bool) *RDD[T] {
	parent := r.compute
	return NewRDD(r.ctx, r.nParts, func(env *cluster.Env, part int, seed int64) ([]T, error) {
		in, err := parent(env, part, seed)
		if err != nil {
			return nil, err
		}
		out := in[:0:0]
		for _, v := range in {
			if pred(v) {
				out = append(out, v)
			}
		}
		return out, nil
	})
}

// Sample takes a random fraction of each partition without replacement,
// Spark's sample(false, frac): each element is kept independently with
// probability frac. The per-task seed, mixed with the partition index,
// seeds a cluster.RowSampler, so the same seed, frac and partition keep the
// same elements on any worker.
func (r *RDD[T]) Sample(frac float64) *RDD[T] {
	parent := r.compute
	return NewRDD(r.ctx, r.nParts, func(env *cluster.Env, part int, seed int64) ([]T, error) {
		if frac <= 0 || frac > 1 {
			return nil, fmt.Errorf("rdd: sample fraction %v outside (0,1]", frac)
		}
		in, err := parent(env, part, seed)
		if err != nil {
			return nil, err
		}
		rows := cluster.NewRowSampler(seed*1000003+int64(part), frac)
		out := make([]T, 0, int(frac*float64(len(in)))+1)
		for i := rows.Next(0, len(in)); i < len(in); i = rows.Next(i+1, len(in)) {
			out = append(out, in[i])
		}
		return out, nil
	})
}

// MapPartitions transforms a whole partition at once.
func MapPartitions[T, U any](r *RDD[T], f func(part int, in []T) ([]U, error)) *RDD[U] {
	parent := r.compute
	return NewRDD(r.ctx, r.nParts, func(env *cluster.Env, part int, seed int64) ([]U, error) {
		in, err := parent(env, part, seed)
		if err != nil {
			return nil, err
		}
		return f(part, in)
	})
}

// partitionTask wraps per-partition computation plus a local fold into a
// cluster task. The fold output type must be concrete for transport.
func partitionTask[T, U any](r *RDD[T], part int, fold func([]T) (U, error)) *cluster.Task {
	t := &cluster.Task{ID: r.ctx.c.NextTaskID(), Partition: part, Seed: r.ctx.c.NextTaskID() * 7919}
	compute := r.compute
	t.SetFunc(func(env *cluster.Env, tk *cluster.Task) (any, error) {
		in, err := compute(env, tk.Partition, tk.Seed)
		if err != nil {
			return nil, err
		}
		return fold(in)
	})
	return t
}

// Reduce aggregates all elements with an associative operator, Spark-style:
// partials are computed per partition on workers, combined on the driver,
// and the action blocks until every partition has reported (the
// bulk-synchronous behaviour ASYNC exists to relax).
func (r *RDD[T]) Reduce(f func(T, T) T) (T, error) {
	var zero T
	type partial struct {
		val T
		ok  bool
	}
	results, err := r.ctx.RunSync(r.partitions(), func(part int) *cluster.Task {
		return partitionTask(r, part, func(in []T) (partial, error) {
			if len(in) == 0 {
				return partial{}, nil
			}
			acc := in[0]
			for _, v := range in[1:] {
				acc = f(acc, v)
			}
			return partial{val: acc, ok: true}, nil
		})
	})
	if err != nil {
		return zero, err
	}
	var acc T
	seen := false
	for _, res := range results {
		p := res.Payload.(partial)
		if !p.ok {
			continue
		}
		if !seen {
			acc, seen = p.val, true
		} else {
			acc = f(acc, p.val)
		}
	}
	if !seen {
		return zero, fmt.Errorf("rdd: reduce of empty RDD")
	}
	return acc, nil
}

// Aggregate folds with a zero value, per-partition seqOp and driver-side
// combOp — Spark's aggregate action.
func Aggregate[T, U any](r *RDD[T], zero U, seqOp func(U, T) U, combOp func(U, U) U) (U, error) {
	results, err := r.ctx.RunSync(r.partitions(), func(part int) *cluster.Task {
		return partitionTask(r, part, func(in []T) (U, error) {
			acc := zero
			for _, v := range in {
				acc = seqOp(acc, v)
			}
			return acc, nil
		})
	})
	var out U
	if err != nil {
		return out, err
	}
	out = zero
	for _, res := range results {
		out = combOp(out, res.Payload.(U))
	}
	return out, nil
}

// Collect gathers every element to the driver.
func (r *RDD[T]) Collect() ([]T, error) {
	results, err := r.ctx.RunSync(r.partitions(), func(part int) *cluster.Task {
		return partitionTask(r, part, func(in []T) ([]T, error) { return in, nil })
	})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, res := range results {
		out = append(out, res.Payload.([]T)...)
	}
	return out, nil
}

// Count returns the number of elements.
func (r *RDD[T]) Count() (int, error) {
	results, err := r.ctx.RunSync(r.partitions(), func(part int) *cluster.Task {
		return partitionTask(r, part, func(in []T) (int, error) { return len(in), nil })
	})
	if err != nil {
		return 0, err
	}
	n := 0
	for _, res := range results {
		n += res.Payload.(int)
	}
	return n, nil
}

func (r *RDD[T]) partitions() []int {
	parts := make([]int, r.nParts)
	for i := range parts {
		parts[i] = i
	}
	return parts
}

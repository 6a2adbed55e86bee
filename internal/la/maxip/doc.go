// Package maxip answers maximum-inner-product (MaxIP) queries over the
// columns of a CSR matrix in sublinear time per selection decision — the
// data structure behind greedy (Gauss-Southwell) coordinate selection and
// scan-free top-k (ROADMAP item 4, after Shrivastava/Song/Xu,
// arXiv:2111.15139: conditional-gradient-type methods can pick their next
// atom without an O(d) pass when a MaxIP structure stands between the
// iterate and the dictionary).
//
// # The structure
//
// Index maintains the exact per-column inner
// products s_j = ⟨x_j, u⟩ against a caller-owned query vector u under a
// tournament tree, and makes both halves of a selection decision sublinear
// in d:
//
//   - Maintenance is O(nnz of dirty rows): when u changes on a set of rows
//     (in the solvers, the rows touched by a sparse model update — the
//     la.DeltaVec touched-set is exactly the dirty list), only the columns
//     stored on those rows can have moved; Flush re-scores those columns and
//     repairs their tournament paths.
//   - Query is O(k·log d): TopK extracts the k best-ranked columns from the
//     tree without visiting the other d−k.
//
// Below Options.ExactBelow distinct columns the tree is skipped entirely
// and TopK falls back to an exact linear scan — at small d the scan beats
// the tree's bookkeeping, and the scan IS the exact argmax, so the
// fallback is also the reference implementation the tests pin against.
//
// # Rebuild-equivalence invariant
//
// A dirty column is re-scored by a full column dot product in storage
// order, never by accumulating the increment into the stale score. Scores
// after any interleaving of SetRow/AddRows/Flush are therefore bitwise
// identical to a from-scratch Rebuild at the same u: equal inputs, equal
// order, equal floating-point result. TestIndexRebuildBitwise and
// FuzzMaxIPIndex hold this line.
//
// # Candidate-set correctness contract
//
// Index ranks by the exact maintained scores, so its candidate set always
// contains the true argmax of the ranking function — with certainty, not
// just high probability. What remains probabilistic in a consumer is the
// query vector itself: a solver that derives u from an incrementally
// maintained residual mirror must verify, when exact per-block gradients
// come back from the workers, that the scores it selected on agree with
// ground truth, and rebuild (or stop being greedy) when they repeatedly do
// not. That driver-side contract lives with the consumer (internal/opt's
// greedy selector); the index's part of the bargain is exactness given u.
package maxip

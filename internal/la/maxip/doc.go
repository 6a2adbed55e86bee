// Package maxip answers maximum-inner-product (MaxIP) queries over the
// columns of a CSR matrix in sublinear time per selection decision — the
// data structure behind greedy (Gauss-Southwell) coordinate selection and
// scan-free top-k (ROADMAP item 5, after Shrivastava/Song/Xu,
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
//   - Maintenance costs what changed, with no search and no repeated match:
//     O(entries of dirty rows + entries of dirty columns + distinct tree
//     nodes above the dirty leaves). When u changes on a set of rows (in the
//     solvers, the rows touched by a sparse model update — the la.DeltaVec
//     touched-set is exactly the dirty list), only the columns stored on
//     those rows can have moved. Flush reaches them by indexing the column
//     view's per-entry slot table (la.ColView.EntrySlot, aligned with the
//     CSR's ColIdx — no lookup per entry), re-scores each once, and then
//     repairs the tournament one level at a time over the de-duplicated
//     parent set, so a match shared by many dirty leaves is played once. A
//     greedy_cd round on sparse-wide dirties ~140 rows → ~9k entries →
//     ~8.7k columns whose leaf-to-root paths (17 matches each) share all
//     but ~45k nodes; BenchmarkFlushGreedyRound probes exactly that shape.
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
// order, equal floating-point result — and the tournament tree, a pure
// function of the ranks, is node-for-node the tree a rebuild would play.
// TestIndexRebuildBitwise, TestFlushRepairShapes and FuzzMaxIPIndex hold
// this line on scores, ranks and the whole tree array.
//
// The pin costs little: with the slot table and shared-path repair the
// full-column dot is about a tenth of a greedy_cd solve, so an
// incremental-score design (s_j += x_ij·Δu_i with a periodic rebuild and a
// tolerance) could buy at most that, and is not taken.
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

// Package maxip answers maximum-inner-product (MaxIP) queries over the
// columns of a CSR matrix — the data structure behind greedy
// (Gauss-Southwell) coordinate selection (ROADMAP item 5).
//
// # The structure
//
// Index maintains the exact per-column inner products s_j = ⟨x_j, u⟩
// against a caller-owned query vector u, and a rank per column (a scorer
// of s_j, |s_j| by default). A selection round has two halves, each one
// forward pass:
//
//   - Maintenance costs what changed. When u changes on a set of rows (in
//     the solvers, the rows touched by a sparse model update), only the
//     columns stored on those rows can have moved. Flush reaches them by
//     indexing the column view's per-entry slot table (la.ColView.EntrySlot,
//     aligned with the CSR's ColIdx — no lookup per entry), sets their bits
//     in a slot bitset (c/64 words), then sweeps the set bits in ascending
//     slot order and re-scores each column once. The column view, the
//     scores, the ranks and a scorer's per-column state are all read
//     forward. O(entries of dirty rows + entries of dirty columns + c/64).
//   - Query is one scan: TopK passes over every rank once and collects the
//     columns above a threshold, so a column that cannot enter costs one
//     comparison. Whenever 2k candidates have gathered, a quickselect keeps
//     the best k and raises the threshold to the k-th best's rank.
//     O(c + inserts) expected, plus O(k·log k) to order the block.
//
// # Why a scan and not a tree
//
// The index used to keep a tournament tree over the ranks, so that TopK
// could extract k winners in O(k·log c) (after Shrivastava, Song & Xu,
// arXiv:2111.15139). Measured per whole round it lost. A greedy_cd round
// dirties about 7 % of its 123k columns, and repairing the tree above them
// replayed ~45k matches scattered over megabytes of tree, rank and mark
// arrays, nearly every one a cache miss: the repair alone was 40 % of the
// solve loop. The scan reads 1 MB of ranks in order. On a 2-core VM a whole
// round (SetRow, Flush, TopK(64)) took 0.48–0.54 ms against the tree's
// 1.9–2.1 ms at greedy_cd's shape, and 3.5–4.1 ms against 11.9–12.5 ms at
// the 1M-column sparse-wide shape (864k columns, 23.9k dirty) the tree was
// built for; BenchmarkFlushGreedyRound times each part. A tree is worth
// measuring again only for a workload whose rounds dirty under about 1 % of
// the columns, where the scan's pass over every rank, not the re-scoring,
// would dominate a round.
//
// # Rebuild-equivalence invariant
//
// A dirty column is re-scored by a full column dot product in storage
// order, never by accumulating the increment into the stale score. Scores
// and ranks after any interleaving of SetRow/AddRows/MarkCol/Flush are
// therefore bitwise identical to a from-scratch Rebuild at the same u:
// equal inputs, equal order, equal floating-point result. TopK's order is
// total (rank descending, then column ascending), so the block is a pure
// function of the ranks. TestIndexRebuildBitwise, TestFlushRepairShapes
// and FuzzMaxIPIndex hold this line on scores and ranks.
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

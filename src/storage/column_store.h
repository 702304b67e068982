// The columnar FactStore backend, inspired by VLog's dictionary-sorted
// column layout.
//
// Per predicate, atoms live in column vectors (one vector<Term> per
// argument position) aligned with a `rows` vector of global atom indices.
// Point lookups AtomsWith(pred, pos, t) binary-search per-position
// permutation arrays kept as *sorted runs*: each batch of appended rows is
// sealed into a run sorted by (term, row), and runs are merged lazily with
// a merge-sort discipline (merge while the newest run is no shorter than
// its predecessor), so maintenance is O(n log n) total and every lookup
// touches at most O(log n) runs.
//
// Versus the RowStore this trades hash-map point lookups (O(1), but one
// heap-allocated vector + hash node per distinct (pred, pos, term) key —
// O(atoms × arity) index entries with ~100 bytes of overhead each) for
// binary search over flat 4-byte-per-entry arrays: O(atoms) index memory.
// Exact membership (Contains/IndexOf) is FactStore's shared flat table.
//
// Run sealing happens lazily on the first query after a mutation, behind
// the same double-checked lock discipline RowStore uses for its deferred
// index build, so bulk loads sort once per batch, not once per atom.

#ifndef BDDFC_STORAGE_COLUMN_STORE_H_
#define BDDFC_STORAGE_COLUMN_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/fact_store.h"

namespace bddfc {

class ColumnStore final : public FactStore {
 public:
  StorageKind kind() const override { return StorageKind::kColumn; }

  /// Deep copy preserving the membership table and the exact sorted-run
  /// layout (no re-seal, no re-merge: NumRuns agrees with the original).
  std::unique_ptr<FactStore> Clone() const override;

  bool AddAtom(const Atom& atom) override;

  const std::vector<std::uint32_t>& AtomsWith(PredicateId pred) const override;
  IndexView AtomsWith(PredicateId pred, int pos, Term t) const override;
  IndexView AtomsWithIn(PredicateId pred, int pos, Term t, std::uint32_t lo,
                        std::uint32_t hi) const override;

  /// The native run structure, borrowed zero-copy from the predicate's
  /// table after sealing: at most O(log n) runs, each sorted by (term,
  /// local row) — and local rows ascend in global order, so each run is
  /// (term, global)-sorted as the contract requires. Invalidated by
  /// mutation like every borrowed view.
  SortedRunsView SortedRuns(PredicateId pred, int pos) const override;

  /// Number of unmerged sorted runs of `pred`'s tables as of the last
  /// seal (diagnostics and the merge-policy tests; 0 when the predicate
  /// is absent). Atoms appended since the last query are not yet sealed
  /// into a run and are not reflected here.
  std::size_t NumRuns(PredicateId pred) const;

 private:
  struct PredTable {
    /// Global atom indices, ascending (this *is* AtomsWith(pred)).
    std::vector<std::uint32_t> rows;
    /// columns[pos][r] = argument `pos` of local row r.
    std::vector<std::vector<Term>> columns;
    /// perms[pos]: local rows permuted into sorted runs ordered by
    /// (columns[pos][r], r). All positions share the run boundaries.
    std::vector<std::vector<std::uint32_t>> perms;
    /// Exclusive ends of the sorted runs within perms[*].
    std::vector<std::uint32_t> run_ends;
    /// Local rows [0, sealed) are covered by runs; [sealed, rows.size())
    /// is the unsealed tail awaiting the next EnsureRuns().
    std::uint32_t sealed = 0;
  };

  PredTable& TableFor(PredicateId pred, std::size_t arity);

  // Seals unsealed tails into new sorted runs and applies the lazy merge
  // policy. Thread-safe double-checked lock (concurrent first queries).
  void EnsureRuns() const;
  static void SealTable(PredTable* table);

  // Indexed by PredicateId. Entries are heap-allocated so references the
  // store hands out (AtomsWith(pred) returns a PredTable's `rows` by
  // reference) survive the vector growing for new predicate ids — the
  // same stability the row store's node-based map gives for free.
  mutable std::vector<std::unique_ptr<PredTable>> tables_;
  mutable std::atomic<bool> runs_current_{true};
  mutable std::mutex runs_mutex_;
};

}  // namespace bddfc

#endif  // BDDFC_STORAGE_COLUMN_STORE_H_

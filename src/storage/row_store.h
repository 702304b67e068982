// The row-oriented FactStore backend: the historical Instance layout.
//
// Hash-map indexes by predicate and by (predicate, position, term); exact
// membership is FactStore's shared flat table. Index vectors are appended
// in insertion order, so every lookup result is ascending by construction.
//
// The hash-map indexes are built lazily on the first index query (and
// maintained incrementally afterwards): a store that is only ever scanned
// via atoms() — a Restrict/Map/DisjointUnion result consumed once — never
// pays the O(atoms × arity) index build at all.

#ifndef BDDFC_STORAGE_ROW_STORE_H_
#define BDDFC_STORAGE_ROW_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "storage/fact_store.h"

namespace bddfc {

class RowStore final : public FactStore {
 public:
  StorageKind kind() const override { return StorageKind::kRow; }

  /// Deep copy: the membership table and (if built) the hash indexes are
  /// copied, cached run snapshots are shared (they are immutable once
  /// published).
  std::unique_ptr<FactStore> Clone() const override;

  bool AddAtom(const Atom& atom) override;

  const std::vector<std::uint32_t>& AtomsWith(PredicateId pred) const override;
  IndexView AtomsWith(PredicateId pred, int pos, Term t) const override;
  IndexView AtomsWithIn(PredicateId pred, int pos, Term t, std::uint32_t lo,
                        std::uint32_t hi) const override;

  /// Satisfies the widened contract by materializing one fully sorted
  /// permutation of the predicate's atoms on demand (correct, slower than
  /// the column store's native runs: O(n log n) per build). Snapshots are
  /// cached per (pred, pos) and rebuilt when the predicate has grown;
  /// handed-out views share ownership of their snapshot, so they survive
  /// both mutation and cache replacement (they just go stale).
  SortedRunsView SortedRuns(PredicateId pred, int pos) const override;

 private:
  // (predicate, position) packed into disjoint 32-bit halves. PredicateId
  // is 32 bits and positions are bounded by the predicate arity (an int),
  // so neither half can truncate.
  using PosKey = std::pair<std::uint64_t, Term>;
  static std::uint64_t PosIndexKey(PredicateId pred, int pos) {
    BDDFC_CHECK_GE(pos, 0);
    return (static_cast<std::uint64_t>(pred) << 32) |
           static_cast<std::uint32_t>(pos);
  }
  struct PosKeyHash {
    std::size_t operator()(const PosKey& k) const {
      std::size_t seed = std::hash<std::uint64_t>{}(k.first);
      HashCombine(&seed, std::hash<Term>{}(k.second));
      return seed;
    }
  };

  // Appends atom #idx to the (built) indexes.
  void IndexAtom(const Atom& atom, std::uint32_t idx) const;
  // Builds the indexes from atoms() if they do not exist yet. Thread-safe
  // double-checked lock: concurrent first queries (the parallel chase)
  // build exactly once.
  void EnsureIndexes() const;

  // One materialized sorted permutation (a single run) of a predicate's
  // atoms at one position, snapshotted at `size_stamp` atoms.
  struct RunSnapshot {
    std::size_t size_stamp = 0;
    std::vector<Term> column;          // term at `pos` per local row
    std::vector<std::uint32_t> rows;   // global index per local row
    std::vector<std::uint32_t> perm;   // local rows sorted by (term, row)
    std::uint32_t run_end = 0;         // the single run's exclusive end
  };

  mutable std::unordered_map<PredicateId, std::vector<std::uint32_t>>
      by_pred_;
  mutable std::unordered_map<PosKey, std::vector<std::uint32_t>, PosKeyHash>
      by_pos_;
  mutable std::atomic<bool> indexes_built_{false};
  mutable std::mutex index_mutex_;
  // Keyed by PosIndexKey(pred, pos); guarded by runs_mutex_ (concurrent
  // first queries from the parallel segment engine build exactly once).
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<const RunSnapshot>>
      runs_cache_;
  mutable std::mutex runs_mutex_;
};

}  // namespace bddfc

#endif  // BDDFC_STORAGE_ROW_STORE_H_

// The row-oriented FactStore backend: the historical Instance layout.
//
// Flat indexes by predicate and by (predicate, position, term); exact
// membership is FactStore's shared flat table. Every (predicate, position,
// term) key owns a posting list — an {offset, size, capacity} slice of one
// shared arena of atom indices — found through an open-addressing table.
// Posting lists are appended in insertion order, so every lookup result is
// ascending by construction. A full list moves to the arena's tail at
// double capacity (or grows in place when it is already last); the slice it
// vacates stays dead, and clones copy it. The per-predicate index is a
// dense table indexed by PredicateId.
//
// The indexes are built lazily on the first index query (and maintained
// incrementally afterwards): a store that is only ever scanned via
// atoms() — a Restrict/Map/DisjointUnion result consumed once — never pays
// the O(atoms × arity) index build at all. The build counts every key's
// postings first and then fills, so a freshly built arena has no dead
// space.

#ifndef BDDFC_STORAGE_ROW_STORE_H_
#define BDDFC_STORAGE_ROW_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/fact_store.h"

namespace bddfc {

class RowStore final : public FactStore {
 public:
  StorageKind kind() const override { return StorageKind::kRow; }

  /// Deep copy: the membership table and (if built) the flat indexes are
  /// copied as plain vectors, cached run snapshots are shared (they are
  /// immutable once published).
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
  static std::uint64_t PosIndexKey(PredicateId pred, int pos) {
    BDDFC_CHECK_GE(pos, 0);
    return (static_cast<std::uint64_t>(pred) << 32) |
           static_cast<std::uint32_t>(pos);
  }

  // One (predicate, position, term) key and its posting list: the atom
  // indices arena_[offset, offset + size), ascending, with room up to
  // offset + capacity.
  struct PostingList {
    std::uint64_t pos_key = 0;
    Term term;
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  // The slot holding (pos_key, t), or the empty slot its probe ends at.
  // Needs a non-empty table.
  std::size_t FindSlot(std::uint64_t pos_key, Term t,
                       std::uint64_t hash) const;
  // The posting list of (pos_key, t), or null when the key is absent.
  const PostingList* FindList(std::uint64_t pos_key, Term t) const;
  // The index into lists_ of (pos_key, t)'s posting list, appending an
  // empty list for a new key. Invalidates references into lists_.
  std::uint32_t FindOrAddList(std::uint64_t pos_key, Term t) const;
  // Appends atom index `idx` to lists_[list], relocating it to the arena's
  // tail at double capacity when it is full.
  void Append(std::uint32_t list, std::uint32_t idx) const;

  // Appends atom #idx to the (built) indexes.
  void IndexAtom(const Atom& atom, std::uint32_t idx) const;
  // The per-predicate index of `pred`, created empty on first use.
  std::vector<std::uint32_t>& PredIndex(PredicateId pred) const;
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

  // Indexed by PredicateId (null: no atom over that predicate). Entries
  // are heap-allocated so the references AtomsWith(pred) hands out survive
  // the table growing for new predicate ids.
  mutable std::vector<std::unique_ptr<std::vector<std::uint32_t>>> by_pred_;
  // The (predicate, position, term) index: posting lists in first-seen key
  // order, their shared arena, and an open-addressing table with linear
  // probing over lists_. Each slot packs the upper 32 bits of the key's
  // hash above its list number + 1 (0 = empty), so most mismatching probes
  // never touch lists_.
  mutable std::vector<PostingList> lists_;
  mutable std::vector<std::uint32_t> arena_;
  mutable std::vector<std::uint64_t> slots_;
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

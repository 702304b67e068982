// The pluggable fact-storage API: the narrow contract every engine (chase,
// parallel exec, homomorphism search, rewriting evaluation, the Reasoner
// facade) relies on, extracted from the historical all-in-one Instance.
//
// A FactStore is an append-only set of ground atoms with
//   * a stable insertion order (atom index i never changes; the chase uses
//     contiguous index ranges as per-step deltas),
//   * exact membership (Contains / IndexOf),
//   * per-predicate and per-(predicate, position, term) index lookups whose
//     results are always in ascending atom-index order, and
//   * range-filtered delta views (AtomsWithIn) over those lookups.
//
// Two backends implement the contract:
//   * RowStore (row_store.h) — the historical Instance layout: hash-map
//     indexes by predicate and by (predicate, position, term). Fastest
//     point lookups, O(atoms × arity) index entries.
//   * ColumnStore (column_store.h) — a VLog-inspired columnar layout:
//     per-predicate column vectors with lazily merged sorted runs and
//     binary-search point lookups. O(atoms) index memory; built for
//     large-EDB materializations.
//
// Exact membership is shared: FactStore itself keeps one flat
// open-addressing table of atom indices (4 bytes per slot, at most 50%
// load), keyed by the atoms it already stores, so no backend holds a
// second copy of any atom.
//
// Both backends return identical results for every query (the storage
// differential suite in tests/storage_test.cc enumerates the contract), so
// chase runs are bit-identical across backends at every thread count.
//
// Thread model: mutation (AddAtom/AddAtoms) is single-threaded; queries are
// const and may run concurrently from many threads (the parallel chase
// does). Lazily built indexes are guarded by a double-checked lock, so the
// first concurrent query wave is safe.

#ifndef BDDFC_STORAGE_FACT_STORE_H_
#define BDDFC_STORAGE_FACT_STORE_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/check.h"
#include "logic/atom.h"
#include "logic/term.h"
#include "logic/universe.h"  // PredicateId only — a header-only alias

namespace bddfc {

/// Which FactStore backend to use. See the file comment for the trade-off.
enum class StorageKind {
  kRow,
  kColumn,
};

/// Human-readable backend name ("row" / "column").
const char* ToString(StorageKind kind);

/// A view over atom indices in ascending order. Views either *borrow* a
/// contiguous range of one of the store's index vectors (row-store lookups,
/// per-predicate scans) or *own* a materialized result (column-store point
/// lookups merge several sorted runs into a private buffer).
///
/// Borrowed views are invalidated by any mutation of the store — the
/// underlying vectors may reallocate — so never hold one across AddAtom /
/// AddAtoms. In debug builds a borrowed view captures the store's
/// generation counter and every deref checks it, turning the silent
/// use-after-invalidation footgun into an immediate CHECK failure.
class IndexView {
 public:
  IndexView() = default;

  /// Borrowed view without a generation guard (tests, scratch buffers).
  IndexView(const std::uint32_t* begin, const std::uint32_t* end)
      : begin_(begin), end_(end) {}

  /// Borrowed view guarded by the issuing store's generation counter (the
  /// guard compiles away in NDEBUG builds). The counter is shared-owned so
  /// the check stays safe even for a view that outlives its store — the
  /// store's destructor poisons the counter, turning that use into a CHECK
  /// failure rather than a read of freed memory.
  IndexView(const std::uint32_t* begin, const std::uint32_t* end,
            const std::shared_ptr<const std::uint64_t>& generation)
      : begin_(begin), end_(end) {
#ifndef NDEBUG
    generation_ = generation;
    expected_generation_ = generation == nullptr ? 0 : *generation;
#else
    (void)generation;
#endif
  }

  /// Owning view over a materialized (ascending) index list.
  explicit IndexView(std::vector<std::uint32_t> owned)
      : owned_(std::move(owned)) {
    begin_ = owned_.data();
    end_ = owned_.data() + owned_.size();
  }

  IndexView(const IndexView& other) { *this = other; }
  IndexView& operator=(const IndexView& other) {
    if (this == &other) return *this;
    owned_ = other.owned_;
    if (owned_.empty()) {
      begin_ = other.begin_;
      end_ = other.end_;
    } else {
      begin_ = owned_.data();
      end_ = owned_.data() + owned_.size();
    }
#ifndef NDEBUG
    generation_ = other.generation_;
    expected_generation_ = other.expected_generation_;
#endif
    return *this;
  }
  // std::vector's heap buffer survives a move, so borrowed pointers into
  // `owned_` stay valid; rebase anyway to keep the invariant obvious.
  IndexView(IndexView&& other) noexcept { *this = std::move(other); }
  IndexView& operator=(IndexView&& other) noexcept {
    if (this == &other) return *this;
    owned_ = std::move(other.owned_);
    if (owned_.empty()) {
      begin_ = other.begin_;
      end_ = other.end_;
    } else {
      begin_ = owned_.data();
      end_ = owned_.data() + owned_.size();
    }
#ifndef NDEBUG
    generation_ = other.generation_;
    expected_generation_ = other.expected_generation_;
#endif
    other.begin_ = other.end_ = nullptr;
    return *this;
  }

  const std::uint32_t* begin() const {
    CheckGeneration();
    return begin_;
  }
  const std::uint32_t* end() const {
    CheckGeneration();
    return end_;
  }
  std::size_t size() const {
    CheckGeneration();
    return static_cast<std::size_t>(end_ - begin_);
  }
  bool empty() const {
    CheckGeneration();
    return begin_ == end_;
  }
  std::uint32_t operator[](std::size_t i) const {
    CheckGeneration();
    return begin_[i];
  }

 private:
  void CheckGeneration() const {
#ifndef NDEBUG
    // A borrowed view whose store has since mutated points into memory the
    // index vectors may have vacated; fail fast instead of reading it.
    BDDFC_CHECK(generation_ == nullptr ||
                *generation_ == expected_generation_);
#endif
  }

  const std::uint32_t* begin_ = nullptr;
  const std::uint32_t* end_ = nullptr;
  std::vector<std::uint32_t> owned_;
#ifndef NDEBUG
  std::shared_ptr<const std::uint64_t> generation_;
  std::uint64_t expected_generation_ = 0;
#endif
};

/// A read-only view of one (predicate, position)'s *sorted runs*: the
/// first-class iteration API the segment engine's merge joins consume,
/// generalizing the point lookups above.
///
/// The view covers every atom of the predicate, as a sequence of `size()`
/// entries partitioned into `num_runs()` runs. Entry k exposes the term at
/// the viewed position (`term(k)`) and the atom's global index
/// (`global(k)`); within each run the (term, global) pairs are strictly
/// ascending, so equal-term entries form a contiguous span per run and
/// their globals ascend — a merge join can binary-search each run for a
/// probe term and early-exit a span once the globals leave its delta
/// range. The column store hands out its native run structure (at most
/// O(log n) runs, zero copies); the row store materializes one fully
/// sorted run on demand (correct, slower — see RowStore::SortedRuns).
///
/// Lifetime mirrors IndexView: a borrowed view (column store) is
/// invalidated by any mutation of the store, and in debug builds carries
/// the store's generation counter so a stale deref fails a CHECK instead
/// of reading vacated memory. A view backed by `keepalive` (row store)
/// owns a snapshot and stays valid across mutation — it just goes stale.
class SortedRunsView {
 public:
  SortedRunsView() = default;

  SortedRunsView(const Term* column, const std::uint32_t* rows,
                 const std::uint32_t* perm, const std::uint32_t* run_ends,
                 std::uint32_t size, std::uint32_t num_runs,
                 std::shared_ptr<const void> keepalive,
                 const std::shared_ptr<const std::uint64_t>& generation)
      : column_(column),
        rows_(rows),
        perm_(perm),
        run_ends_(run_ends),
        size_(size),
        num_runs_(num_runs),
        keepalive_(std::move(keepalive)) {
#ifndef NDEBUG
    generation_ = generation;
    expected_generation_ = generation == nullptr ? 0 : *generation;
#else
    (void)generation;
#endif
  }

  /// Total entries (== the number of atoms over the predicate).
  std::size_t size() const {
    CheckGeneration();
    return size_;
  }
  bool empty() const {
    CheckGeneration();
    return size_ == 0;
  }

  std::size_t num_runs() const {
    CheckGeneration();
    return num_runs_;
  }

  /// Entry range [run_begin(r), run_end(r)) of run r.
  std::uint32_t run_begin(std::size_t r) const {
    CheckGeneration();
    return r == 0 ? 0 : run_ends_[r - 1];
  }
  std::uint32_t run_end(std::size_t r) const {
    CheckGeneration();
    return run_ends_[r];
  }

  /// The viewed position's term of entry k.
  Term term(std::uint32_t k) const {
    CheckGeneration();
    return column_[perm_[k]];
  }

  /// Global atom index of entry k.
  std::uint32_t global(std::uint32_t k) const {
    CheckGeneration();
    return rows_[perm_[k]];
  }

 private:
  void CheckGeneration() const {
#ifndef NDEBUG
    BDDFC_CHECK(generation_ == nullptr ||
                *generation_ == expected_generation_);
#endif
  }

  const Term* column_ = nullptr;           // term per local row
  const std::uint32_t* rows_ = nullptr;    // global index per local row
  const std::uint32_t* perm_ = nullptr;    // local rows in run-sorted order
  const std::uint32_t* run_ends_ = nullptr;  // exclusive entry end per run
  std::uint32_t size_ = 0;
  std::uint32_t num_runs_ = 0;
  std::shared_ptr<const void> keepalive_;  // row-store snapshot owner
#ifndef NDEBUG
  std::shared_ptr<const std::uint64_t> generation_;
  std::uint64_t expected_generation_ = 0;
#endif
};

/// Abstract fact storage. Owns the atom sequence and active domain (shared
/// by every backend); subclasses own the index structures. All index query
/// results list atom indices in ascending order — the engines' determinism
/// guarantee (bit-identical chase runs on every backend) rests on it.
class FactStore {
 public:
  /// Creates an empty store of the given backend.
  static std::unique_ptr<FactStore> Create(StorageKind kind);

  virtual ~FactStore() {
#ifndef NDEBUG
    // Poison the shared counter: any further deref of a borrowed view
    // (store destroyed) becomes a CHECK failure.
    *generation_ = ~std::uint64_t{0};
#endif
  }

  virtual StorageKind kind() const = 0;

  /// Deep-copies the store, preserving atom order, index structures and
  /// (for the column store) the exact sorted-run layout, so the copy
  /// answers every contract query identically to the original — including
  /// run-structure diagnostics — without re-hashing or re-sealing anything.
  /// Much faster than replaying atoms() through AddAtoms on a fresh store;
  /// this is the epoch-snapshot path of the server (src/serve/snapshot.h).
  /// The copy is fully independent: mutating either store never affects
  /// the other (immutable cached artifacts may be shared). Thread-safe
  /// against concurrent const queries, like any other const operation.
  virtual std::unique_ptr<FactStore> Clone() const = 0;

  /// Adds an atom; returns true if it was not already present.
  virtual bool AddAtom(const Atom& atom) = 0;

  /// Bulk append over a contiguous range (no intermediate vector needed to
  /// batch a slice of an existing sequence). The batch size is known up
  /// front, so the atom sequence and the membership table grow once for
  /// the whole batch; index construction is deferred for the whole batch
  /// — and beyond: indexes are built lazily on first query, so a store
  /// that is only ever scanned via atoms() never pays for them.
  void AddAtoms(const Atom* begin, const Atom* end) {
    ReserveAtoms(static_cast<std::size_t>(end - begin));
    for (const Atom* a = begin; a != end; ++a) AddAtom(*a);
  }

  void AddAtoms(const std::vector<Atom>& atoms) {
    AddAtoms(atoms.data(), atoms.data() + atoms.size());
  }

  bool Contains(const Atom& atom) const { return IndexOf(atom) != SIZE_MAX; }

  /// Position of `atom` in atoms(), or SIZE_MAX when absent.
  std::size_t IndexOf(const Atom& atom) const;

  /// All atoms in insertion order.
  const std::vector<Atom>& atoms() const { return atoms_; }

  std::size_t size() const { return atoms_.size(); }

  /// Indices (into atoms()) of atoms over `pred`, ascending.
  virtual const std::vector<std::uint32_t>& AtomsWith(
      PredicateId pred) const = 0;

  /// Indices of atoms over `pred` whose argument `pos` equals `t`,
  /// ascending.
  virtual IndexView AtomsWith(PredicateId pred, int pos, Term t) const = 0;

  /// View of AtomsWith(pred) restricted to atom indices in [lo, hi).
  IndexView AtomsWithIn(PredicateId pred, std::uint32_t lo,
                        std::uint32_t hi) const;

  /// View of AtomsWith(pred, pos, t) restricted to atom indices in
  /// [lo, hi).
  virtual IndexView AtomsWithIn(PredicateId pred, int pos, Term t,
                                std::uint32_t lo,
                                std::uint32_t hi) const = 0;

  /// The sorted-run structure of (pred, pos): every atom of `pred` exactly
  /// once, partitioned into runs each strictly ascending by (term at pos,
  /// global atom index). Empty view when the predicate is absent or `pos`
  /// is beyond its arity. Thread-safe against concurrent queries (lazy
  /// structures are built behind the backends' double-checked locks), not
  /// against concurrent mutation — the usual FactStore thread model.
  virtual SortedRunsView SortedRuns(PredicateId pred, int pos) const = 0;

  /// The active domain: every term occurring in some atom, in first-seen
  /// order.
  const std::vector<Term>& ActiveDomain() const { return adom_; }

  bool InActiveDomain(Term t) const {
    return adom_set_.find(t) != adom_set_.end();
  }

#ifndef NDEBUG
  /// Mutation counter backing the debug-build IndexView guard. Bumped by
  /// every successful insertion; poisoned by the destructor. Debug builds
  /// only, like the guard itself.
  std::uint64_t generation() const { return *generation_; }
#endif

 protected:
  /// What RecordAtom returns for an atom that is already present.
  static constexpr std::uint32_t kDuplicate = UINT32_MAX;

  /// Appends `atom` unless it is already present: enters it in the
  /// membership table, the shared sequence and the active domain, and
  /// bumps the generation counter. Returns the new atom's index, or
  /// kDuplicate (and changes nothing) when the atom is already stored.
  std::uint32_t RecordAtom(const Atom& atom);

  /// Reserves room for `extra` further atoms (bulk loads): the sequence
  /// and the membership table grow once instead of along the way.
  void ReserveAtoms(std::size_t extra) {
    atoms_.reserve(atoms_.size() + extra);
    GrowSlots(extra);
  }

  /// Copies the base-class state (atom sequence, membership table and
  /// active domain) from `other` into this freshly created store. The
  /// generation counter stays this store's own — no views borrowed from
  /// `other` can ever observe the copy. Backends' Clone() implementations
  /// call this first.
  void CopyBaseFrom(const FactStore& other) {
    BDDFC_CHECK(atoms_.empty());
    atoms_ = other.atoms_;
    slots_ = other.slots_;
    adom_ = other.adom_;
    adom_set_ = other.adom_set_;
  }

  /// Borrowed view with this store's generation guard attached (release
  /// builds hand out an unguarded view; the counter is never read there).
  IndexView BorrowView(const std::uint32_t* begin,
                       const std::uint32_t* end) const {
#ifndef NDEBUG
    return IndexView(begin, end, generation_);
#else
    return IndexView(begin, end);
#endif
  }

  /// Clamps a sorted index vector to the atom-index range [lo, hi),
  /// returning a guarded borrowed view.
  IndexView ClampView(const std::vector<std::uint32_t>& indices,
                      std::uint32_t lo, std::uint32_t hi) const;

  /// Borrowed sorted-runs view with this store's generation guard attached
  /// (release builds hand out an unguarded view, mirroring BorrowView).
  /// Snapshot-backed views should construct SortedRunsView directly with
  /// their keepalive and a null generation instead.
  SortedRunsView BorrowRuns(const Term* column, const std::uint32_t* rows,
                            const std::uint32_t* perm,
                            const std::uint32_t* run_ends, std::uint32_t size,
                            std::uint32_t num_runs) const {
#ifndef NDEBUG
    return SortedRunsView(column, rows, perm, run_ends, size, num_runs,
                          nullptr, generation_);
#else
    return SortedRunsView(column, rows, perm, run_ends, size, num_runs,
                          nullptr, nullptr);
#endif
  }

  static const std::vector<std::uint32_t> kEmptyIndex;

 private:
  // The slot `atom` occupies, or the empty slot its probe ends at. Needs a
  // non-empty table.
  std::size_t FindSlot(const Atom& atom) const;
  // Ensures capacity for `pending` further atoms at no more than 50% load.
  void GrowSlots(std::size_t pending);

  std::vector<Atom> atoms_;
  // Open-addressing membership table with linear probing: each slot holds
  // an atom index + 1 (0 = empty); the keys are atoms_[index] themselves.
  // Nothing is ever erased, so the occupied count is atoms_.size().
  std::vector<std::uint32_t> slots_;
  std::vector<Term> adom_;
  std::unordered_set<Term> adom_set_;
#ifndef NDEBUG
  // Shared with borrowed IndexViews (debug guard) so the check survives
  // the store; the destructor poisons it.
  std::shared_ptr<std::uint64_t> generation_ =
      std::make_shared<std::uint64_t>(0);
#endif
};

}  // namespace bddfc

#endif  // BDDFC_STORAGE_FACT_STORE_H_

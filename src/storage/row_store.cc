#include "storage/row_store.h"

#include <algorithm>
#include <memory>

#include "obs/obs.h"

namespace bddfc {

std::unique_ptr<FactStore> RowStore::Clone() const {
  auto copy = std::make_unique<RowStore>();
  copy->CopyBaseFrom(*this);
  {
    // Lock only to order against a concurrent first-query index build;
    // mutation is single-threaded per the FactStore thread model.
    std::lock_guard<std::mutex> lock(index_mutex_);
    if (indexes_built_.load(std::memory_order_acquire)) {
      copy->by_pred_ = by_pred_;
      copy->by_pos_ = by_pos_;
      copy->indexes_built_.store(true, std::memory_order_release);
    }
  }
  {
    // Published RunSnapshots are immutable; sharing them is safe and makes
    // the clone's first SortedRuns query free.
    std::lock_guard<std::mutex> lock(runs_mutex_);
    copy->runs_cache_ = runs_cache_;
  }
  return copy;
}

bool RowStore::AddAtom(const Atom& atom) {
  const std::uint32_t idx = RecordAtom(atom);
  if (idx == kDuplicate) return false;
  // Deferred index construction: before the first index query nothing is
  // indexed (EnsureIndexes builds from atoms() wholesale); afterwards every
  // insertion appends incrementally. Acquire pairs with EnsureIndexes'
  // release so a build on a query thread is fully visible here even if the
  // caller provided no other happens-before edge.
  if (indexes_built_.load(std::memory_order_acquire)) IndexAtom(atom, idx);
  return true;
}

void RowStore::IndexAtom(const Atom& atom, std::uint32_t idx) const {
  by_pred_[atom.pred()].push_back(idx);
  for (std::size_t pos = 0; pos < atom.arity(); ++pos) {
    by_pos_[{PosIndexKey(atom.pred(), static_cast<int>(pos)), atom.arg(pos)}]
        .push_back(idx);
  }
}

void RowStore::EnsureIndexes() const {
  if (indexes_built_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (indexes_built_.load(std::memory_order_relaxed)) return;
  BDDFC_OBS_SPAN(index_span, "storage", "storage.index_build");
  const std::vector<Atom>& all = atoms();
  index_span.Arg("atoms", all.size());
  for (std::uint32_t idx = 0; idx < all.size(); ++idx) {
    IndexAtom(all[idx], idx);
  }
  // Stores have no per-run config, so their telemetry goes to the
  // process-global registry (pointer interned once).
  static obs::Counter* builds =
      obs::Metrics().GetCounter("storage.index_builds");
  builds->Add(1);
  indexes_built_.store(true, std::memory_order_release);
}

const std::vector<std::uint32_t>& RowStore::AtomsWith(
    PredicateId pred) const {
  EnsureIndexes();
  auto it = by_pred_.find(pred);
  return it == by_pred_.end() ? kEmptyIndex : it->second;
}

IndexView RowStore::AtomsWith(PredicateId pred, int pos, Term t) const {
  EnsureIndexes();
  auto it = by_pos_.find({PosIndexKey(pred, pos), t});
  if (it == by_pos_.end()) return IndexView();
  return BorrowView(it->second.data(), it->second.data() + it->second.size());
}

IndexView RowStore::AtomsWithIn(PredicateId pred, int pos, Term t,
                                std::uint32_t lo, std::uint32_t hi) const {
  EnsureIndexes();
  auto it = by_pos_.find({PosIndexKey(pred, pos), t});
  if (it == by_pos_.end()) return IndexView();
  return ClampView(it->second, lo, hi);
}

SortedRunsView RowStore::SortedRuns(PredicateId pred, int pos) const {
  EnsureIndexes();
  auto it = by_pred_.find(pred);
  if (it == by_pred_.end()) return SortedRunsView();
  const std::vector<std::uint32_t>& globals = it->second;
  const std::vector<Atom>& all = atoms();
  if (static_cast<std::size_t>(pos) >= all[globals.front()].arity()) {
    return SortedRunsView();
  }
  const std::uint64_t key = PosIndexKey(pred, pos);
  std::shared_ptr<const RunSnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(runs_mutex_);
    std::shared_ptr<const RunSnapshot>& slot = runs_cache_[key];
    if (slot == nullptr || slot->size_stamp != globals.size()) {
      auto fresh = std::make_shared<RunSnapshot>();
      const std::uint32_t n = static_cast<std::uint32_t>(globals.size());
      fresh->size_stamp = n;
      fresh->column.reserve(n);
      fresh->rows.reserve(n);
      fresh->perm.reserve(n);
      for (std::uint32_t r = 0; r < n; ++r) {
        fresh->column.push_back(all[globals[r]].arg(pos));
        fresh->rows.push_back(globals[r]);
        fresh->perm.push_back(r);
      }
      const std::vector<Term>& column = fresh->column;
      std::sort(fresh->perm.begin(), fresh->perm.end(),
                [&column](std::uint32_t a, std::uint32_t b) {
                  if (column[a] != column[b]) return column[a] < column[b];
                  return a < b;
                });
      fresh->run_end = n;
      slot = std::move(fresh);
    }
    snapshot = slot;
  }
  return SortedRunsView(snapshot->column.data(), snapshot->rows.data(),
                        snapshot->perm.data(), &snapshot->run_end,
                        snapshot->run_end, 1, snapshot, nullptr);
}

}  // namespace bddfc

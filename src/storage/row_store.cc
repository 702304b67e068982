#include "storage/row_store.h"

#include <algorithm>
#include <memory>

#include "obs/obs.h"

namespace bddfc {

namespace {

constexpr std::size_t kInitialPosSlots = 64;  // power of two

// splitmix64's finalizer over a (PosIndexKey, term) pair.
std::uint64_t PosHash(std::uint64_t pos_key, Term t) {
  std::uint64_t z = pos_key * 0x9e3779b97f4a7c15ULL + t.raw();
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::unique_ptr<FactStore> RowStore::Clone() const {
  auto copy = std::make_unique<RowStore>();
  copy->CopyBaseFrom(*this);
  {
    // Lock only to order against a concurrent first-query index build;
    // mutation is single-threaded per the FactStore thread model.
    std::lock_guard<std::mutex> lock(index_mutex_);
    if (indexes_built_.load(std::memory_order_acquire)) {
      copy->by_pred_.reserve(by_pred_.size());
      for (const auto& rows : by_pred_) {
        copy->by_pred_.push_back(
            rows == nullptr
                ? nullptr
                : std::make_unique<std::vector<std::uint32_t>>(*rows));
      }
      copy->lists_ = lists_;
      copy->arena_ = arena_;
      copy->slots_ = slots_;
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

std::size_t RowStore::FindSlot(std::uint64_t pos_key, Term t,
                              std::uint64_t hash) const {
  const std::uint64_t tag = hash >> 32;
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = hash & mask;
  while (slots_[slot] != 0) {
    const std::uint64_t stored = slots_[slot];
    if ((stored >> 32) == tag) {
      const PostingList& list = lists_[(stored & 0xffffffffu) - 1];
      if (list.term == t && list.pos_key == pos_key) return slot;
    }
    slot = (slot + 1) & mask;
  }
  return slot;
}

const RowStore::PostingList* RowStore::FindList(std::uint64_t pos_key,
                                                Term t) const {
  if (slots_.empty()) return nullptr;
  const std::uint64_t stored =
      slots_[FindSlot(pos_key, t, PosHash(pos_key, t))];
  return stored == 0 ? nullptr : &lists_[(stored & 0xffffffffu) - 1];
}

std::uint32_t RowStore::FindOrAddList(std::uint64_t pos_key, Term t) const {
  if (2 * (lists_.size() + 1) >= slots_.size()) {
    // Grow to keep the load at most 50%, re-placing every list.
    slots_.assign(slots_.empty() ? kInitialPosSlots : 2 * slots_.size(), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t i = 0; i < lists_.size(); ++i) {
      const std::uint64_t hash = PosHash(lists_[i].pos_key, lists_[i].term);
      std::size_t slot = hash & mask;
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = ((hash >> 32) << 32) | (i + 1);
    }
  }
  const std::uint64_t hash = PosHash(pos_key, t);
  const std::size_t slot = FindSlot(pos_key, t, hash);
  if (slots_[slot] != 0) {
    return static_cast<std::uint32_t>(slots_[slot] & 0xffffffffu) - 1;
  }
  PostingList fresh;
  fresh.pos_key = pos_key;
  fresh.term = t;
  lists_.push_back(fresh);
  slots_[slot] = ((hash >> 32) << 32) | lists_.size();
  return static_cast<std::uint32_t>(lists_.size() - 1);
}

void RowStore::Append(std::uint32_t list, std::uint32_t idx) const {
  PostingList& l = lists_[list];
  if (l.size == l.capacity) {
    // Double the capacity: in place when the list is the arena's last,
    // else at the tail, leaving the vacated slice dead.
    const std::uint32_t grown = l.capacity == 0 ? 1 : 2 * l.capacity;
    const bool last =
        l.capacity != 0 && l.offset + l.capacity == arena_.size();
    const std::size_t offset = last ? l.offset : arena_.size();
    BDDFC_CHECK_LE(offset + grown, UINT32_MAX);
    arena_.resize(offset + grown);
    if (!last) {
      std::copy_n(arena_.data() + l.offset, l.size, arena_.data() + offset);
      l.offset = static_cast<std::uint32_t>(offset);
    }
    l.capacity = grown;
  }
  arena_[l.offset + l.size++] = idx;
}

std::vector<std::uint32_t>& RowStore::PredIndex(PredicateId pred) const {
  if (pred >= by_pred_.size()) by_pred_.resize(pred + 1);
  if (by_pred_[pred] == nullptr) {
    by_pred_[pred] = std::make_unique<std::vector<std::uint32_t>>();
  }
  return *by_pred_[pred];
}

void RowStore::IndexAtom(const Atom& atom, std::uint32_t idx) const {
  PredIndex(atom.pred()).push_back(idx);
  for (std::size_t pos = 0; pos < atom.arity(); ++pos) {
    Append(FindOrAddList(PosIndexKey(atom.pred(), static_cast<int>(pos)),
                         atom.arg(pos)),
           idx);
  }
}

void RowStore::EnsureIndexes() const {
  if (indexes_built_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (indexes_built_.load(std::memory_order_relaxed)) return;
  BDDFC_OBS_SPAN(index_span, "storage", "storage.index_build");
  const std::vector<Atom>& all = atoms();
  index_span.Arg("atoms", all.size());
  // Count every key's postings into its capacity, lay the lists out back
  // to back, then fill: no list relocates, and the arena has no dead
  // space.
  for (const Atom& atom : all) {
    for (std::size_t pos = 0; pos < atom.arity(); ++pos) {
      ++lists_[FindOrAddList(PosIndexKey(atom.pred(), static_cast<int>(pos)),
                             atom.arg(pos))]
            .capacity;
    }
  }
  std::size_t total = 0;
  for (PostingList& list : lists_) {
    list.offset = static_cast<std::uint32_t>(total);
    total += list.capacity;
  }
  BDDFC_CHECK_LE(total, UINT32_MAX);
  arena_.resize(total);
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
  if (pred >= by_pred_.size() || by_pred_[pred] == nullptr) {
    return kEmptyIndex;
  }
  return *by_pred_[pred];
}

IndexView RowStore::AtomsWith(PredicateId pred, int pos, Term t) const {
  EnsureIndexes();
  const PostingList* list = FindList(PosIndexKey(pred, pos), t);
  if (list == nullptr) return IndexView();
  const std::uint32_t* begin = arena_.data() + list->offset;
  return BorrowView(begin, begin + list->size);
}

IndexView RowStore::AtomsWithIn(PredicateId pred, int pos, Term t,
                                std::uint32_t lo, std::uint32_t hi) const {
  EnsureIndexes();
  const PostingList* list = FindList(PosIndexKey(pred, pos), t);
  if (list == nullptr) return IndexView();
  const std::uint32_t* begin = arena_.data() + list->offset;
  return ClampView(begin, begin + list->size, lo, hi);
}

SortedRunsView RowStore::SortedRuns(PredicateId pred, int pos) const {
  const std::vector<std::uint32_t>& globals = AtomsWith(pred);
  if (globals.empty()) return SortedRunsView();
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

#include "storage/fact_store.h"

#include <algorithm>

#include "storage/column_store.h"
#include "storage/row_store.h"

namespace bddfc {

namespace {

constexpr std::size_t kInitialSlots = 64;  // power of two

}  // namespace

const std::vector<std::uint32_t> FactStore::kEmptyIndex;

const char* ToString(StorageKind kind) {
  switch (kind) {
    case StorageKind::kRow:
      return "row";
    case StorageKind::kColumn:
      return "column";
  }
  return "?";
}

std::unique_ptr<FactStore> FactStore::Create(StorageKind kind) {
  switch (kind) {
    case StorageKind::kRow:
      return std::make_unique<RowStore>();
    case StorageKind::kColumn:
      return std::make_unique<ColumnStore>();
  }
  BDDFC_CHECK(false);
  return nullptr;
}

std::size_t FactStore::FindSlot(const Atom& atom) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = AtomHash{}(atom) & mask;
  while (slots_[slot] != 0) {
    if (atoms_[slots_[slot] - 1] == atom) return slot;
    slot = (slot + 1) & mask;
  }
  return slot;
}

void FactStore::GrowSlots(std::size_t pending) {
  std::size_t capacity = slots_.empty() ? kInitialSlots : slots_.size();
  while (2 * (atoms_.size() + pending) >= capacity) capacity *= 2;
  if (capacity == slots_.size()) return;
  std::vector<std::uint32_t> old = std::move(slots_);
  slots_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::uint32_t stored : old) {
    if (stored == 0) continue;
    std::size_t slot = AtomHash{}(atoms_[stored - 1]) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = stored;
  }
}

std::size_t FactStore::IndexOf(const Atom& atom) const {
  if (slots_.empty()) return SIZE_MAX;
  const std::uint32_t stored = slots_[FindSlot(atom)];
  return stored == 0 ? SIZE_MAX : stored - 1;
}

std::uint32_t FactStore::RecordAtom(const Atom& atom) {
  GrowSlots(1);
  const std::size_t slot = FindSlot(atom);
  if (slots_[slot] != 0) return kDuplicate;
  const std::uint32_t idx = static_cast<std::uint32_t>(atoms_.size());
  atoms_.push_back(atom);
  slots_[slot] = idx + 1;
  for (Term t : atom.args()) {
    if (adom_set_.insert(t).second) adom_.push_back(t);
  }
#ifndef NDEBUG
  ++*generation_;
#endif
  return idx;
}

IndexView FactStore::ClampView(const std::vector<std::uint32_t>& indices,
                               std::uint32_t lo, std::uint32_t hi) const {
  if (lo >= hi) return IndexView();
  const std::uint32_t* begin = indices.data();
  const std::uint32_t* end = begin + indices.size();
  if (lo > 0) begin = std::lower_bound(begin, end, lo);
  if (indices.empty() || hi <= indices.back()) {
    end = std::lower_bound(begin, end, hi);
  }
  return BorrowView(begin, end);
}

IndexView FactStore::AtomsWithIn(PredicateId pred, std::uint32_t lo,
                                 std::uint32_t hi) const {
  return ClampView(AtomsWith(pred), lo, hi);
}

}  // namespace bddfc

// Instances: finite sets of atoms, with the indexes the homomorphism solver
// and the chase rely on. Instances are grow-only; restriction and union
// build new instances.
//
// Since the storage-API redesign an Instance is a thin owner of a
// bddfc::FactStore (src/storage/): it binds the store to a Universe (arity
// checking, the implicit ⊤ fact) and forwards every query to the backend
// selected at construction — StorageKind::kRow (hashed posting lists in
// one flat arena, the historical layout) or StorageKind::kColumn
// (VLog-style columnar tables).
// Both backends answer every query identically, so engines never care
// which one is underneath.
//
// Per the paper (Section 2.1), every instance implicitly contains the
// nullary fact ⊤; Instance adds it on construction.

#ifndef BDDFC_LOGIC_INSTANCE_H_
#define BDDFC_LOGIC_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "logic/atom.h"
#include "logic/substitution.h"
#include "logic/universe.h"
#include "storage/fact_store.h"

namespace bddfc {

/// A set of atoms with per-predicate and per-(predicate, position, term)
/// indexes. Atom order is insertion order, which the chase uses to expose
/// creation steps: because instances are append-only, the atoms created by
/// chase step k form the contiguous index range [count(k-1), count(k)), and
/// the range-filtered AtomsWithIn views below let the semi-naive trigger
/// enumerator scan exactly such a delta.
class Instance {
 public:
  /// Creates an instance containing only the implicit ⊤ fact, stored in
  /// the given backend.
  explicit Instance(Universe* universe,
                    StorageKind storage = StorageKind::kRow);

  /// Deep copy, keeping (or overriding) the source's storage backend.
  Instance(const Instance& other);
  Instance(const Instance& other, StorageKind storage);
  Instance& operator=(const Instance& other);
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;

  Universe* universe() const { return universe_; }

  /// The storage backend this instance lives in.
  StorageKind storage() const { return store_->kind(); }

  /// The underlying store (index lookups not re-exported here, storage
  /// diagnostics). Treat as read-only.
  const FactStore& store() const { return *store_; }

  /// Adds an atom; returns true if it was not already present.
  bool AddAtom(const Atom& atom);

  /// Adds every atom of `atoms` as one bulk batch (index construction is
  /// deferred by the backends, so build-then-scan consumers never pay for
  /// indexes).
  void AddAtoms(const std::vector<Atom>& atoms) {
    AddAtoms(atoms.data(), atoms.data() + atoms.size());
  }

  /// Bulk append over a contiguous range — batch a slice of an existing
  /// sequence without copying it into a temporary vector first.
  void AddAtoms(const Atom* begin, const Atom* end);

  bool Contains(const Atom& atom) const { return store_->Contains(atom); }

  /// Position of `atom` in atoms(), or SIZE_MAX when absent.
  std::size_t IndexOf(const Atom& atom) const { return store_->IndexOf(atom); }

  /// All atoms in insertion order (position 0 is ⊤).
  const std::vector<Atom>& atoms() const { return store_->atoms(); }

  /// Number of atoms, including the implicit ⊤.
  std::size_t size() const { return store_->size(); }

  /// Indices (into atoms()) of atoms over `pred`.
  const std::vector<std::uint32_t>& AtomsWith(PredicateId pred) const {
    return store_->AtomsWith(pred);
  }

  /// Indices of atoms over `pred` whose argument `pos` equals `t`.
  IndexView AtomsWith(PredicateId pred, int pos, Term t) const {
    return store_->AtomsWith(pred, pos, t);
  }

  /// View of AtomsWith(pred) restricted to atom indices in [lo, hi).
  IndexView AtomsWithIn(PredicateId pred, std::uint32_t lo,
                        std::uint32_t hi) const {
    return store_->AtomsWithIn(pred, lo, hi);
  }

  /// View of AtomsWith(pred, pos, t) restricted to atom indices in [lo, hi).
  IndexView AtomsWithIn(PredicateId pred, int pos, Term t, std::uint32_t lo,
                        std::uint32_t hi) const {
    return store_->AtomsWithIn(pred, pos, t, lo, hi);
  }

  /// The active domain: every term occurring in some atom, in first-seen
  /// order.
  const std::vector<Term>& ActiveDomain() const {
    return store_->ActiveDomain();
  }

  bool InActiveDomain(Term t) const { return store_->InActiveDomain(t); }

  /// New instance containing only atoms whose predicate is in `preds`
  /// (plus ⊤).
  Instance Restrict(const std::unordered_set<PredicateId>& preds) const;

  /// New instance containing σ(atom) for every atom.
  Instance Map(const Substitution& sigma) const;

  /// The disjoint union I ¯∪ J of the paper: atoms of `b` are renamed so
  /// that their non-rigid terms avoid `a`'s active domain.
  static Instance DisjointUnion(const Instance& a, const Instance& b);

 private:
  Universe* universe_;
  std::unique_ptr<FactStore> store_;
};

}  // namespace bddfc

#endif  // BDDFC_LOGIC_INSTANCE_H_

// Atoms: a predicate applied to a tuple of terms.

#ifndef BDDFC_LOGIC_ATOM_H_
#define BDDFC_LOGIC_ATOM_H_

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <vector>

#include "base/hash.h"
#include "logic/term.h"
#include "logic/universe.h"

namespace bddfc {

/// A predicate applied to terms. Value type; equality and hashing are
/// structural.
class Atom {
 public:
  Atom() : pred_(Universe::kNoPredicate) {}
  Atom(PredicateId pred, std::vector<Term> args)
      : pred_(pred), args_(std::move(args)) {}
  Atom(PredicateId pred, std::initializer_list<Term> args)
      : pred_(pred), args_(args) {}

  PredicateId pred() const { return pred_; }
  const std::vector<Term>& args() const { return args_; }
  std::size_t arity() const { return args_.size(); }
  Term arg(std::size_t i) const { return args_[i]; }

  /// Replaces argument `i` — for scratch atoms that are rewritten in place
  /// instead of reallocated (the chase's head projection).
  void set_arg(std::size_t i, Term t) { args_[i] = t; }

  bool IsNullary() const { return args_.empty(); }
  bool IsUnary() const { return args_.size() == 1; }
  bool IsBinary() const { return args_.size() == 2; }

  /// True if some argument is `t`.
  bool Mentions(Term t) const {
    for (Term a : args_) {
      if (a == t) return true;
    }
    return false;
  }

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.pred_ == b.pred_ && a.args_ == b.args_;
  }
  friend bool operator!=(const Atom& a, const Atom& b) { return !(a == b); }
  friend bool operator<(const Atom& a, const Atom& b) {
    if (a.pred_ != b.pred_) return a.pred_ < b.pred_;
    return a.args_ < b.args_;
  }

 private:
  PredicateId pred_;
  std::vector<Term> args_;
};

/// std::hash-compatible functor for Atom.
struct AtomHash {
  std::size_t operator()(const Atom& a) const {
    std::size_t seed = std::hash<std::uint32_t>{}(a.pred());
    for (Term t : a.args()) {
      HashCombine(&seed, std::hash<Term>{}(t));
    }
    return seed;
  }
};

}  // namespace bddfc

namespace std {
template <>
struct hash<bddfc::Atom> {
  std::size_t operator()(const bddfc::Atom& a) const {
    return bddfc::AtomHash{}(a);
  }
};
}  // namespace std

#endif  // BDDFC_LOGIC_ATOM_H_

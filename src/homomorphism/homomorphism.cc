#include "homomorphism/homomorphism.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/check.h"

namespace bddfc {

namespace {

// Greedy connectivity-based ordering: repeatedly pick the atom that shares
// the most terms with atoms already placed (ties: more rigid terms first,
// then fewer fresh variables, then lowest input position). Fully
// deterministic; keeps the backtracking search anchored. When `first` is
// non-negative, atoms[first] is placed up front (the delta-anchor runs of
// ForEachDelta seed the ordering with the anchor atom). Returns the
// positions of `atoms` in search order.
std::vector<std::size_t> GreedyOrderIndices(const std::vector<Atom>& atoms,
                                            int first) {
  std::vector<std::size_t> order;
  order.reserve(atoms.size());
  std::unordered_set<Term> seen;
  std::vector<bool> placed(atoms.size(), false);
  auto place = [&](std::size_t i) {
    placed[i] = true;
    for (Term t : atoms[i].args()) {
      if (!t.IsRigid()) seen.insert(t);
    }
    order.push_back(i);
  };
  if (first >= 0) place(static_cast<std::size_t>(first));
  while (order.size() < atoms.size()) {
    int best = -1;
    int best_shared = -1;
    int best_rigid = -1;
    int best_fresh = -1;
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (placed[i]) continue;
      int shared = 0;
      int rigid = 0;
      int fresh = 0;
      const std::vector<Term>& args = atoms[i].args();
      for (std::size_t p = 0; p < args.size(); ++p) {
        Term t = args[p];
        if (t.IsRigid()) {
          ++rigid;
          continue;
        }
        if (seen.find(t) != seen.end()) {
          ++shared;
          continue;
        }
        // Fresh variables are counted once per distinct term.
        bool repeat = false;
        for (std::size_t q = 0; q < p; ++q) {
          if (args[q] == t) {
            repeat = true;
            break;
          }
        }
        if (!repeat) ++fresh;
      }
      if (shared > best_shared ||
          (shared == best_shared &&
           (rigid > best_rigid ||
            (rigid == best_rigid && fresh < best_fresh)))) {
        best = static_cast<int>(i);
        best_shared = shared;
        best_rigid = rigid;
        best_fresh = fresh;
      }
    }
    place(static_cast<std::size_t>(best));
  }
  return order;
}

// Allowed target-atom index range [lo, hi) for one source atom.
using AtomRange = std::pair<std::uint32_t, std::uint32_t>;

// Mutable search state shared by the recursion.
struct SearchState {
  const internal::SlotProgram* program = nullptr;
  const Instance* target = nullptr;
  bool injective = false;
  // When non-null: per-depth image index ranges, parallel to
  // program->atoms (semi-naive delta anchoring). Null means unconstrained.
  const AtomRange* ranges = nullptr;
  // binding[s]: the image of slot s, invalid while unbound. trail lists the
  // slots bound so far, in binding order, so a failed branch unbinds by
  // truncating it.
  std::vector<Term> binding;
  std::vector<std::uint32_t> trail;
  std::unordered_set<Term> used;  // images, for injectivity
  const HomSearch::SlotVisitor* visit = nullptr;
  std::size_t visited = 0;
  bool stop = false;
};

void Search(SearchState* st, std::size_t depth);

// Attempts to match source atom `a` (argument slots `slots`) against target
// atom `b`, binding unbound slots; on success recurses, then undoes the
// bindings.
void TryMatch(SearchState* st, const Atom& a, const std::int32_t* slots,
              const Atom& b, std::size_t depth) {
  const std::size_t mark = st->trail.size();
  bool ok = true;
  for (std::size_t p = 0; p < a.arity(); ++p) {
    const Term v = b.arg(p);
    const std::int32_t s = slots[p];
    if (s < 0) {
      if (a.arg(p) != v) {
        ok = false;
        break;
      }
      continue;
    }
    Term& bound = st->binding[s];
    if (bound.IsValid()) {
      if (bound != v) {
        ok = false;
        break;
      }
      continue;
    }
    if (st->injective && !st->used.insert(v).second) {
      ok = false;
      break;
    }
    bound = v;
    st->trail.push_back(static_cast<std::uint32_t>(s));
  }
  if (ok) Search(st, depth + 1);
  while (st->trail.size() > mark) {
    Term& bound = st->binding[st->trail.back()];
    if (st->injective) st->used.erase(bound);
    bound = Term();
    st->trail.pop_back();
  }
}

void Search(SearchState* st, std::size_t depth) {
  if (st->stop) return;
  const internal::SlotProgram& program = *st->program;
  if (depth == program.atoms.size()) {
    ++st->visited;
    if (!(*st->visit)(st->binding.data())) st->stop = true;
    return;
  }
  const Atom& a = program.atoms[depth];
  const std::int32_t* slots = program.slots.data() + program.offsets[depth];
  std::uint32_t lo = 0;
  std::uint32_t hi = static_cast<std::uint32_t>(st->target->size());
  if (st->ranges != nullptr) {
    lo = st->ranges[depth].first;
    hi = std::min(hi, st->ranges[depth].second);
  }
  if (a.IsNullary()) {
    std::size_t idx = st->target->IndexOf(a);
    if (idx != SIZE_MAX && idx >= lo && idx < hi) Search(st, depth + 1);
    return;
  }
  // Pick the most selective candidate list available, clamped to [lo, hi).
  IndexView candidates = st->target->AtomsWithIn(a.pred(), lo, hi);
  for (std::size_t p = 0; p < a.arity(); ++p) {
    const Term resolved = slots[p] < 0 ? a.arg(p) : st->binding[slots[p]];
    if (!resolved.IsValid()) continue;
    IndexView narrowed =
        st->target->AtomsWithIn(a.pred(), static_cast<int>(p), resolved, lo,
                                hi);
    // Column-store views own their (merged) result; move, don't copy.
    if (narrowed.size() < candidates.size()) candidates = std::move(narrowed);
  }
  const std::vector<Atom>& atoms = st->target->atoms();
  for (std::uint32_t idx : candidates) {
    if (st->stop) return;
    TryMatch(st, a, slots, atoms[idx], depth);
  }
}

// The (term, slot) entry of `t` in a term-sorted slot index, or null.
const std::pair<Term, std::uint32_t>* FindSlot(
    const std::vector<std::pair<Term, std::uint32_t>>& index, Term t) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), t,
      [](const std::pair<Term, std::uint32_t>& entry, Term key) {
        return entry.first < key;
      });
  return it != index.end() && it->first == t ? &*it : nullptr;
}

// Deterministic first-atom chunking shared by the pool-parallel queries:
// chunk k of `count` covers [k*size, min(n, (k+1)*size)).
struct FirstAtomChunks {
  std::uint32_t size = 0;
  std::size_t count = 0;
};

FirstAtomChunks PlanFirstAtomChunks(std::uint32_t n, std::size_t workers) {
  // At least 64 target atoms per chunk, at most ~4 chunks per participant.
  constexpr std::uint32_t kGrain = 64;
  FirstAtomChunks plan;
  plan.count = std::min<std::size_t>(4 * (workers + 1),
                                     (n + kGrain - 1) / kGrain);
  if (plan.count == 0) plan.count = 1;
  plan.size = (n + static_cast<std::uint32_t>(plan.count) - 1) /
              static_cast<std::uint32_t>(plan.count);
  return plan;
}

}  // namespace

HomSearch::HomSearch(std::vector<Atom> source, const Instance* target,
                     HomOptions options)
    : target_(target), options_(options) {
  BDDFC_CHECK(target != nullptr);
  // Distinct flexible terms as (term, first occurrence), and the distinct
  // rigid terms — sorted vectors, not hash sets: a search is often built
  // per query call.
  std::vector<std::pair<Term, std::uint32_t>> flexible;
  for (const Atom& a : source) {
    for (Term t : a.args()) {
      if (t.IsRigid()) {
        rigid_terms_.push_back(t);
      } else {
        flexible.emplace_back(t, static_cast<std::uint32_t>(flexible.size()));
      }
    }
  }
  std::sort(rigid_terms_.begin(), rigid_terms_.end());
  rigid_terms_.erase(std::unique(rigid_terms_.begin(), rigid_terms_.end()),
                     rigid_terms_.end());
  std::sort(flexible.begin(), flexible.end());
  flexible.erase(std::unique(flexible.begin(), flexible.end(),
                             [](const auto& x, const auto& y) {
                               return x.first == y.first;
                             }),
                 flexible.end());
  // Slots in order of first occurrence.
  std::sort(flexible.begin(), flexible.end(),
            [](const auto& x, const auto& y) { return x.second < y.second; });
  slot_index_.reserve(flexible.size());
  for (const auto& entry : flexible) {
    slot_index_.emplace_back(entry.first,
                             static_cast<std::uint32_t>(slot_terms_.size()));
    slot_terms_.push_back(entry.first);
  }
  std::sort(slot_index_.begin(), slot_index_.end());
  std::vector<Atom> ordered;
  ordered.reserve(source.size());
  for (std::size_t i : GreedyOrderIndices(source, -1)) {
    ordered.push_back(std::move(source[i]));
  }
  program_ = Compile(std::move(ordered));
}

std::size_t HomSearch::SlotOf(Term t) const {
  const std::pair<Term, std::uint32_t>* entry = FindSlot(slot_index_, t);
  BDDFC_CHECK(entry != nullptr);
  return entry->second;
}

internal::SlotProgram HomSearch::Compile(std::vector<Atom> ordered) const {
  internal::SlotProgram program;
  program.atoms = std::move(ordered);
  program.offsets.reserve(program.atoms.size());
  for (const Atom& a : program.atoms) {
    program.offsets.push_back(static_cast<std::uint32_t>(program.slots.size()));
    for (Term t : a.args()) {
      program.slots.push_back(
          t.IsRigid() ? -1 : static_cast<std::int32_t>(SlotOf(t)));
    }
  }
  return program;
}

Substitution HomSearch::ToSubstitution(const Term* image) const {
  Substitution h;
  for (std::size_t i = 0; i < slot_terms_.size(); ++i) {
    h.Bind(slot_terms_[i], image[i]);
  }
  return h;
}

std::size_t HomSearch::Run(const internal::SlotProgram& program,
                           const AtomRange* ranges, const Substitution& seed,
                           const SlotVisitor& visit) const {
  SearchState st;
  st.program = &program;
  st.target = target_;
  st.injective = options_.injective;
  st.ranges = ranges;
  st.visit = &visit;
  st.binding.assign(slot_terms_.size(), Term());
  st.trail.reserve(slot_terms_.size());
  // Seed the slots. A rigid term binds only to itself; seed bindings of
  // terms outside the source constrain nothing but injectivity.
  for (const auto& [from, to] : seed.entries()) {
    if (from.IsRigid()) {
      if (from != to) return 0;  // seed contradicts rigidity
      continue;
    }
    const std::pair<Term, std::uint32_t>* entry = FindSlot(slot_index_, from);
    if (entry != nullptr) st.binding[entry->second] = to;
  }
  if (st.injective) {
    // Reserve the rigid images and the seed images; a seed collision means
    // no injective extension exists.
    st.used.insert(rigid_terms_.begin(), rigid_terms_.end());
    for (const auto& [from, to] : seed.entries()) {
      if (!from.IsRigid() && !st.used.insert(to).second) return 0;
    }
  }
  Search(&st, 0);
  return st.visited;
}

std::size_t HomSearch::ForEachImage(const Substitution& seed,
                                    const SlotVisitor& visit) const {
  return Run(program_, nullptr, seed, visit);
}

std::size_t HomSearch::ForEach(
    const Substitution& seed,
    const std::function<bool(const Substitution&)>& visit) const {
  // Seed bindings of terms outside the source ride along unchanged.
  std::vector<std::pair<Term, Term>> outside;
  for (const auto& [from, to] : seed.entries()) {
    if (!from.IsRigid() && FindSlot(slot_index_, from) == nullptr) {
      outside.emplace_back(from, to);
    }
  }
  return ForEachImage(seed, [&](const Term* image) {
    Substitution h = ToSubstitution(image);
    for (const auto& [from, to] : outside) h.Bind(from, to);
    return visit(h);
  });
}

void HomSearch::EnsureAnchorPrograms() const {
  if (!anchor_orders_.empty() || program_.atoms.empty()) return;
  anchor_orders_.reserve(program_.atoms.size());
  anchor_programs_.reserve(program_.atoms.size());
  for (std::size_t i = 0; i < program_.atoms.size(); ++i) {
    anchor_orders_.push_back(
        GreedyOrderIndices(program_.atoms, static_cast<int>(i)));
    std::vector<Atom> ordered;
    ordered.reserve(program_.atoms.size());
    for (std::size_t pos : anchor_orders_.back()) {
      ordered.push_back(program_.atoms[pos]);
    }
    anchor_programs_.push_back(Compile(std::move(ordered)));
  }
}

std::size_t HomSearch::ForEachDelta(const Substitution& seed,
                                    std::uint32_t delta_begin,
                                    std::uint32_t delta_end,
                                    const SlotVisitor& visit) const {
  if (delta_begin >= delta_end || program_.atoms.empty()) return 0;
  // Partition the qualifying homomorphisms by their *anchor*: the first
  // source atom (in search order) whose image falls inside the delta.
  // Anchor run i constrains atom i to the delta, atoms j < i strictly below
  // it, and later atoms to the delta_end prefix — each qualifying
  // homomorphism is generated by exactly one run.
  std::size_t total = 0;
  bool stopped = false;
  const SlotVisitor wrapped = [&](const Term* image) {
    if (!visit(image)) {
      stopped = true;
      return false;
    }
    return true;
  };
  for (std::size_t anchor = 0; anchor < program_.atoms.size(); ++anchor) {
    total += ForEachDeltaAnchor(anchor, delta_begin, delta_end, delta_begin,
                                delta_end, seed, wrapped);
    if (stopped) break;
  }
  return total;
}

std::size_t HomSearch::ForEachDeltaAnchor(
    std::size_t anchor, std::uint32_t delta_begin, std::uint32_t delta_end,
    std::uint32_t anchor_begin, std::uint32_t anchor_end,
    const Substitution& seed, const SlotVisitor& visit) const {
  if (anchor_begin >= anchor_end || program_.atoms.empty()) return 0;
  EnsureAnchorPrograms();
  BDDFC_CHECK_LT(anchor, program_.atoms.size());
  const std::vector<std::size_t>& order = anchor_orders_[anchor];
  std::vector<AtomRange> run_ranges(order.size());
  for (std::size_t d = 0; d < order.size(); ++d) {
    const std::size_t pos = order[d];
    if (pos < anchor) {
      run_ranges[d] = {0, delta_begin};
    } else if (pos == anchor) {
      run_ranges[d] = {anchor_begin, anchor_end};
    } else {
      run_ranges[d] = {0, delta_end};
    }
  }
  return Run(anchor_programs_[anchor], run_ranges.data(), seed, visit);
}

std::size_t HomSearch::ForEachFirstIn(std::uint32_t first_begin,
                                      std::uint32_t first_end,
                                      const Substitution& seed,
                                      const SlotVisitor& visit) const {
  BDDFC_CHECK(!program_.atoms.empty());
  const std::uint32_t n = static_cast<std::uint32_t>(target_->size());
  std::vector<AtomRange> run_ranges(program_.atoms.size(), {0, n});
  run_ranges[0] = {first_begin, first_end};
  return Run(program_, run_ranges.data(), seed, visit);
}

std::size_t HomSearch::Project(const std::vector<std::size_t>& columns,
                               std::vector<Term>* rows, ThreadPool* pool,
                               std::size_t limit) const {
  if (limit == 0) return 0;
  const auto project = [&columns, limit](std::vector<Term>* out,
                                         std::size_t* count) {
    return [&columns, limit, out, count](const Term* image) {
      for (std::size_t c : columns) out->push_back(image[c]);
      return ++*count < limit;
    };
  };
  const std::uint32_t n = static_cast<std::uint32_t>(target_->size());
  const FirstAtomChunks plan =
      PlanFirstAtomChunks(n, pool == nullptr ? 0 : pool->num_workers());
  if (pool == nullptr || pool->num_workers() == 0 ||
      program_.atoms.empty() || plan.count < 2) {
    std::size_t count = 0;
    ForEachImage({}, project(rows, &count));
    return count;
  }
  std::vector<std::vector<Term>> batches(plan.count);
  std::vector<std::size_t> counts(plan.count, 0);
  for (std::size_t k = 0; k < plan.count; ++k) {
    const std::uint32_t lo = static_cast<std::uint32_t>(k) * plan.size;
    const std::uint32_t hi = std::min(n, lo + plan.size);
    if (lo >= hi) break;
    pool->Submit([this, &project, &batches, &counts, k, lo, hi] {
      ForEachFirstIn(lo, hi, {}, project(&batches[k], &counts[k]));
    });
  }
  pool->WaitAll();
  std::size_t total = 0;
  for (std::size_t k = 0; k < plan.count && total < limit; ++k) {
    const std::size_t take = std::min(counts[k], limit - total);
    rows->insert(rows->end(), batches[k].begin(),
                 batches[k].begin() + take * columns.size());
    total += take;
  }
  return total;
}

bool HomSearch::ExistsParallel(ThreadPool* pool,
                               const Substitution& seed) const {
  const std::uint32_t n = static_cast<std::uint32_t>(target_->size());
  const FirstAtomChunks plan =
      PlanFirstAtomChunks(n, pool == nullptr ? 0 : pool->num_workers());
  if (pool == nullptr || pool->num_workers() == 0 ||
      program_.atoms.empty() || plan.count < 2) {
    return Exists(seed);
  }
  std::atomic<bool> found{false};
  for (std::size_t k = 0; k < plan.count; ++k) {
    const std::uint32_t lo = static_cast<std::uint32_t>(k) * plan.size;
    const std::uint32_t hi = std::min(n, lo + plan.size);
    if (lo >= hi) break;
    pool->Submit([this, &seed, &found, lo, hi] {
      if (found.load(std::memory_order_relaxed)) return;
      ForEachFirstIn(lo, hi, seed, [&](const Term*) {
        found.store(true, std::memory_order_relaxed);
        return false;
      });
    });
  }
  pool->WaitAll();
  return found.load(std::memory_order_relaxed);
}

std::size_t HomSearch::CountParallel(ThreadPool* pool,
                                     const Substitution& seed) const {
  const std::uint32_t n = static_cast<std::uint32_t>(target_->size());
  const FirstAtomChunks plan =
      PlanFirstAtomChunks(n, pool == nullptr ? 0 : pool->num_workers());
  const auto all = [](const Term*) { return true; };
  if (pool == nullptr || pool->num_workers() == 0 ||
      program_.atoms.empty() || plan.count < 2) {
    return ForEachImage(seed, all);
  }
  std::vector<std::size_t> counts(plan.count, 0);
  for (std::size_t k = 0; k < plan.count; ++k) {
    const std::uint32_t lo = static_cast<std::uint32_t>(k) * plan.size;
    const std::uint32_t hi = std::min(n, lo + plan.size);
    if (lo >= hi) break;
    pool->Submit([this, &seed, &counts, &all, k, lo, hi] {
      counts[k] = ForEachFirstIn(lo, hi, seed, all);
    });
  }
  pool->WaitAll();
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  return total;
}

std::optional<Substitution> HomSearch::FindOne(const Substitution& seed) const {
  std::optional<Substitution> found;
  ForEach(seed, [&](const Substitution& s) {
    found = s;
    return false;
  });
  return found;
}

bool HomSearch::Exists(const Substitution& seed) const {
  return ForEachImage(seed, [](const Term*) { return false; }) != 0;
}

std::vector<Substitution> HomSearch::FindAll(const Substitution& seed,
                                             std::size_t limit) const {
  std::vector<Substitution> out;
  ForEach(seed, [&](const Substitution& s) {
    out.push_back(s);
    return out.size() < limit;
  });
  return out;
}

namespace {

// Builds the partial assignment pinning answer variables to `binding`.
// Returns false when the binding is inconsistent (a repeated answer
// variable asked to take two distinct values), in which case no
// homomorphism exists.
bool AnswerSeed(const Cq& q, const std::vector<Term>& binding,
                Substitution* seed) {
  BDDFC_CHECK(binding.empty() || binding.size() == q.answers().size());
  for (std::size_t i = 0; i < binding.size(); ++i) {
    Term var = q.answers()[i];
    if (seed->IsBound(var) && seed->Apply(var) != binding[i]) return false;
    seed->Bind(var, binding[i]);
  }
  return true;
}

}  // namespace

bool Entails(const Instance& instance, const Cq& q,
             const std::vector<Term>& binding) {
  Substitution seed;
  if (!AnswerSeed(q, binding, &seed)) return false;
  HomSearch search(q.atoms(), &instance);
  return search.Exists(seed);
}

bool EntailsInjectively(const Instance& instance, const Cq& q,
                        const std::vector<Term>& binding) {
  Substitution seed;
  if (!AnswerSeed(q, binding, &seed)) return false;
  HomSearch search(q.atoms(), &instance, {.injective = true});
  return search.Exists(seed);
}

bool Entails(const Instance& instance, const Ucq& q,
             const std::vector<Term>& binding) {
  for (const Cq& disjunct : q.disjuncts()) {
    if (Entails(instance, disjunct, binding)) return true;
  }
  return false;
}

bool EntailsInjectively(const Instance& instance, const Ucq& q,
                        const std::vector<Term>& binding) {
  for (const Cq& disjunct : q.disjuncts()) {
    if (EntailsInjectively(instance, disjunct, binding)) return true;
  }
  return false;
}

bool MapsInto(const Instance& a, const Instance& b) {
  HomSearch search(a.atoms(), &b);
  return search.Exists();
}

bool HomEquivalent(const Instance& a, const Instance& b) {
  return MapsInto(a, b) && MapsInto(b, a);
}

bool Subsumes(const Cq& general, const Cq& specific) {
  if (general.answers().size() != specific.answers().size()) return false;
  // Target: the atoms of `specific` viewed as a structure. Its variables are
  // plain values (nothing constrains them), which realizes the usual
  // "freeze" construction without renaming.
  if (specific.atoms().empty()) return general.atoms().empty();
  Substitution seed;
  for (std::size_t i = 0; i < general.answers().size(); ++i) {
    Term from = general.answers()[i];
    Term to = specific.answers()[i];
    if (seed.IsBound(from) && seed.Apply(from) != to) return false;
    seed.Bind(from, to);
  }
  // Build a throwaway instance over the same universe-independent data. We
  // only need the indexes, so a local instance suffices; ⊤ membership is
  // irrelevant because query atoms never use it unless present in both.
  // The instance requires a universe: reuse none — emulate by linear scan
  // matching instead when atoms are few.
  // For simplicity and because rewriting queries are small, use a direct
  // backtracking over a vector target via a temporary index-free search.
  // We reuse HomSearch by materializing a lightweight Instance is not
  // possible without a Universe, so we do the scan here.
  struct MiniSearch {
    const std::vector<Atom>& source;
    const std::vector<Atom>& target;
    std::unordered_map<Term, Term> assignment;

    bool Run(std::size_t depth) {
      if (depth == source.size()) return true;
      const Atom& a = source[depth];
      for (const Atom& b : target) {
        if (b.pred() != a.pred()) continue;
        std::vector<Term> bound_here;
        bool ok = true;
        for (std::size_t p = 0; p < a.arity(); ++p) {
          Term s = a.arg(p);
          Term v = b.arg(p);
          Term resolved;
          if (s.IsRigid()) {
            resolved = s;
          } else {
            auto it = assignment.find(s);
            resolved = it == assignment.end() ? Term() : it->second;
          }
          if (resolved.IsValid()) {
            if (resolved != v) {
              ok = false;
              break;
            }
            continue;
          }
          assignment.emplace(s, v);
          bound_here.push_back(s);
        }
        if (ok && Run(depth + 1)) return true;
        for (Term t : bound_here) assignment.erase(t);
      }
      return false;
    }
  };
  MiniSearch search{general.atoms(), specific.atoms(), {}};
  for (const auto& [from, to] : seed.entries()) {
    search.assignment.emplace(from, to);
  }
  return search.Run(0);
}

Cq Core(const Cq& q, Universe* universe) {
  Cq current = q;
  bool changed = true;
  while (changed) {
    changed = false;
    Instance target(universe);
    target.AddAtoms(current.atoms());
    HomSearch search(current.atoms(), &target);
    Substitution seed;
    for (Term a : current.answers()) seed.Bind(a, a);
    search.ForEach(seed, [&](const Substitution& h) {
      std::unordered_set<Atom> image;
      for (const Atom& atom : current.atoms()) image.insert(h.Apply(atom));
      if (image.size() < current.atoms().size()) {
        std::vector<Atom> reduced(image.begin(), image.end());
        std::sort(reduced.begin(), reduced.end());
        current = Cq(std::move(reduced), current.answers());
        changed = true;
        return false;  // restart with the smaller query
      }
      return true;
    });
  }
  return current;
}

}  // namespace bddfc

#include "valley/peak_removal.h"

#include <unordered_set>

#include "base/check.h"
#include "homomorphism/homomorphism.h"
#include "valley/valley_query.h"

namespace bddfc {

PeakRemover::PeakRemover(const ObliviousChase* chase_exists, const Ucq* q_inj,
                         std::size_t max_iterations, PeakStart start)
    : chase_(chase_exists),
      q_inj_(q_inj),
      max_iterations_(max_iterations),
      start_(start) {
  BDDFC_CHECK(chase_exists != nullptr);
  BDDFC_CHECK(q_inj != nullptr);
}

Multiset<int> PeakRemover::ImageTimestamps(const Cq& q,
                                           const Substitution& hom) const {
  // TS_m over the terms of h(q) (Definition 34 lifted to sets of terms).
  std::unordered_set<Term> image_terms;
  for (const Atom& a : q.atoms()) {
    for (Term t : a.args()) image_terms.insert(hom.Apply(t));
  }
  Multiset<int> ts;
  for (Term t : image_terms) ts.Add(chase_->TimestampOf(t));
  return ts;
}

std::optional<PeakRemover::WitnessCandidate> PeakRemover::ExtremalWitness(
    const Instance& target, Term s, Term t, bool minimal) const {
  std::optional<WitnessCandidate> best;
  for (std::size_t i = 0; i < q_inj_->size(); ++i) {
    const Cq& q = q_inj_->disjuncts()[i];
    if (q.answers().size() != 2) continue;
    Substitution seed;
    Term x = q.answers()[0];
    Term y = q.answers()[1];
    if (x == y && s != t) continue;  // merged answers need s == t
    seed.Bind(x, s);
    seed.Bind(y, t);
    HomSearch search(q.atoms(), &target, {.injective = true});
    search.ForEach(seed, [&](const Substitution& h) {
      Multiset<int> ts = ImageTimestamps(q, h);
      bool better = !best.has_value() ||
                    (minimal ? LexLess(ts, best->timestamps)
                             : LexLess(best->timestamps, ts));
      if (better) best = WitnessCandidate{i, h, std::move(ts)};
      return true;
    });
  }
  return best;
}

PeakRemovalResult PeakRemover::Run(Term s, Term t) const {
  PeakRemovalResult result;
  std::optional<WitnessCandidate> current = ExtremalWitness(
      chase_->Result(), s, t, start_ == PeakStart::kMinimal);
  if (!current.has_value()) {
    result.failure_reason = "no injective witness for the edge in Ch(R∃)";
    return result;
  }

  for (std::size_t iter = 0; iter < max_iterations_; ++iter) {
    const Cq& q = q_inj_->disjuncts()[current->index];
    ValleyAnalysis analysis = AnalyzeValley(q);

    PeakStep step;
    step.witness_index = current->index;
    step.query = q;
    step.timestamps = current->timestamps;
    step.is_valley = analysis.is_valley;
    result.trajectory.push_back(step);

    if (analysis.is_valley) {
      result.success = true;
      return result;
    }

    // A ≤_q-maximal existential variable exists because q is not a valley.
    Term peak;
    for (Term m : analysis.maximal_vars) {
      if (m != q.answers()[0] && m != q.answers()[1]) {
        peak = m;
        break;
      }
    }
    if (!peak.IsValid()) {
      result.failure_reason =
          "query is not a valley but has no existential maximal variable "
          "(cyclic or non-binary witness)";
      return result;
    }

    Term image = current->hom.Apply(peak);
    const std::optional<ChaseTermInfo> info = chase_->InfoOf(image);
    if (!info.has_value()) {
      result.failure_reason =
          "peak image is a database term; no creating trigger to splice";
      return result;
    }

    // I = h(q) ∖ h(Z) ∪ π(body(ρ)).
    Instance reduced(chase_->universe());
    for (const Atom& a : q.atoms()) {
      if (a.Mentions(peak)) continue;
      reduced.AddAtom(current->hom.Apply(a));
    }
    const Rule& rule = chase_->rules()[info->rule_index];
    for (const Atom& a : rule.body()) {
      reduced.AddAtom(info->trigger.Apply(a));
    }

    // Inside the spliced instance, always descend to the minimum — this is
    // what guarantees strict <_lex progress from any starting point.
    std::optional<WitnessCandidate> next =
        ExtremalWitness(reduced, s, t, /*minimal=*/true);
    if (!next.has_value()) {
      result.failure_reason =
          "no witness inside the spliced instance (incomplete injective "
          "rewriting?)";
      return result;
    }
    if (!LexLess(next->timestamps, current->timestamps)) {
      result.strictly_decreasing = false;
      result.failure_reason =
          "timestamp multiset did not strictly decrease (would refute "
          "Lemma 40)";
      return result;
    }
    current = std::move(next);
  }
  result.failure_reason = "iteration bound reached";
  return result;
}

}  // namespace bddfc

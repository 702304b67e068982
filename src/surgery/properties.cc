#include "surgery/properties.h"

#include <unordered_set>

#include "base/check.h"
#include "homomorphism/homomorphism.h"

namespace bddfc {
namespace surgery {

bool IsForwardExistential(const RuleSet& rules) {
  for (const Rule& rule : rules) {
    if (rule.IsDatalog()) continue;
    for (const Atom& a : rule.head()) {
      switch (a.arity()) {
        case 0:
          break;
        case 1:
          // Allowed with any variable (see header).
          break;
        case 2:
          if (!rule.IsFrontierVar(a.arg(0)) ||
              !rule.IsExistentialVar(a.arg(1))) {
            return false;
          }
          break;
        default:
          return false;  // definition presupposes binary signature
      }
    }
  }
  return true;
}

bool IsPredicateUnique(const RuleSet& rules) {
  for (const Rule& rule : rules) {
    if (rule.IsDatalog()) continue;
    std::unordered_set<PredicateId> seen;
    for (const Atom& a : rule.head()) {
      if (!seen.insert(a.pred()).second) return false;
    }
  }
  return true;
}

bool IsQuick(const RuleSet& rules, const std::vector<Instance>& test_instances,
             ChaseOptions options) {
  for (const Instance& db : test_instances) {
    ObliviousChase chase(db, rules, options);
    chase.Run();
    const Instance& full = chase.Result();
    Instance one_step = chase.Prefix(std::min<std::size_t>(
        1, chase.StepsExecuted()));

    for (const Atom& beta : full.atoms()) {
      // Does β qualify? Every term must be a database term or a chase term
      // whose creating frontier lies inside adom(I).
      bool qualifies = true;
      for (Term t : beta.args()) {
        if (db.InActiveDomain(t)) continue;
        const std::optional<ChaseTermInfo> info = chase.InfoOf(t);
        if (!info.has_value()) {
          qualifies = false;  // foreign term (cannot happen in practice)
          break;
        }
        for (Term f : info->frontier) {
          if (!db.InActiveDomain(f)) {
            qualifies = false;
            break;
          }
        }
        if (!qualifies) break;
      }
      if (!qualifies) continue;

      // β must have an image in Ch_1 fixing its database terms.
      Substitution seed;
      for (Term t : beta.args()) {
        if (db.InActiveDomain(t)) seed.Bind(t, t);
      }
      HomSearch search({beta}, &one_step);
      if (!search.Exists(seed)) return false;
    }
  }
  return true;
}

std::string RegalityReport::ToString() const {
  std::string out;
  auto flag = [&out](const char* name, bool value) {
    out += name;
    out += value ? ": yes" : ": NO";
    out += '\n';
  };
  flag("binary signature", binary_signature);
  flag("forward-existential", forward_existential);
  flag("predicate-unique", predicate_unique);
  flag("quick", quick);
  flag("UCQ-rewritable (probed)", ucq_rewritable);
  out += IsRegal() ? "=> regal\n" : "=> not regal\n";
  return out;
}

RegalityReport CheckRegal(const RuleSet& rules, Universe* universe,
                          const std::vector<Instance>& test_instances,
                          RewriterOptions rewriter_options,
                          ChaseOptions chase_options) {
  RegalityReport report;
  report.binary_signature = true;
  for (PredicateId p : SignatureOf(rules)) {
    if (universe->ArityOf(p) > 2) report.binary_signature = false;
  }
  report.forward_existential = IsForwardExistential(rules);
  report.predicate_unique = IsPredicateUnique(rules);
  report.quick = IsQuick(rules, test_instances, chase_options);

  // Probe UCQ-rewritability with the atomic query of every predicate.
  report.ucq_rewritable = true;
  UcqRewriter rewriter(rules, universe, rewriter_options);
  for (PredicateId p : SignatureOf(rules)) {
    int arity = universe->ArityOf(p);
    std::vector<Term> args;
    for (int i = 0; i < arity; ++i) {
      args.push_back(universe->FreshVariable("probe"));
    }
    Cq atomic({Atom(p, args)}, args);
    RewriteResult result = rewriter.Rewrite(atomic);
    if (!result.saturated) {
      report.ucq_rewritable = false;
      break;
    }
  }
  return report;
}

RuleSet DefineRelationByUcq(const RuleSet& rules, const Ucq& definition,
                            PredicateId e) {
  RuleSet out = rules;
  for (const Cq& q : definition.disjuncts()) {
    BDDFC_CHECK_EQ(q.answers().size(), 2u);
    out.push_back(Rule(q.atoms(),
                       {Atom(e, {q.answers()[0], q.answers()[1]})},
                       "define_E"));
  }
  return out;
}

}  // namespace surgery
}  // namespace bddfc

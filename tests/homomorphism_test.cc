// Unit tests for the homomorphism solver: entailment, injective entailment,
// hom-equivalence, subsumption and cores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

class HomTest : public ::testing::Test {
 protected:
  Universe u_;
};

TEST_F(HomTest, SimpleEntailment) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(b,c).");
  EXPECT_TRUE(Entails(inst, MustParseCq(&u_, "? :- E(x,y), E(y,z)")));
  EXPECT_FALSE(Entails(inst, MustParseCq(&u_, "? :- E(x,x)")));
}

TEST_F(HomTest, PathQueryNeedsComposition) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(c,d).");
  EXPECT_FALSE(Entails(inst, MustParseCq(&u_, "? :- E(x,y), E(y,z)")));
}

TEST_F(HomTest, ConstantsAreRigid) {
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  EXPECT_TRUE(Entails(inst, MustParseCq(&u_, "? :- E(a,x)")));
  EXPECT_FALSE(Entails(inst, MustParseCq(&u_, "? :- E(b,x)")));
}

TEST_F(HomTest, AnswerBinding) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(b,c).");
  Cq q = MustParseCq(&u_, "?(x) :- E(x,y)");
  Term a = u_.FindConstant("a");
  Term c = u_.FindConstant("c");
  EXPECT_TRUE(Entails(inst, q, {a}));
  EXPECT_FALSE(Entails(inst, q, {c}));
}

TEST_F(HomTest, InjectiveEntailment) {
  // q: x -> y -> z maps into the 2-cycle classically but the injective
  // image needs 3 distinct vertices.
  Instance two_cycle = MustParseInstance(&u_, "E(a,b). E(b,a).");
  Cq path3 = MustParseCq(&u_, "? :- E(x,y), E(y,z)");
  EXPECT_TRUE(Entails(two_cycle, path3));
  EXPECT_FALSE(EntailsInjectively(two_cycle, path3));

  Instance path = MustParseInstance(&u_, "E(c,d). E(d,e).");
  EXPECT_TRUE(EntailsInjectively(path, path3));
}

TEST_F(HomTest, InjectiveWithRigidCollision) {
  // x cannot injectively map onto the image of constant a.
  Instance inst = MustParseInstance(&u_, "E(a,a).");
  Cq q = MustParseCq(&u_, "? :- E(a,x)");
  EXPECT_TRUE(Entails(inst, q));
  EXPECT_FALSE(EntailsInjectively(inst, q));
}

TEST_F(HomTest, UcqEntailment) {
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  Ucq ucq(
      {MustParseCq(&u_, "? :- E(x,x)"), MustParseCq(&u_, "? :- E(x,y)")});
  EXPECT_TRUE(Entails(inst, ucq));
}

TEST_F(HomTest, FindAllCountsHomomorphisms) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(a,c).");
  Cq q = MustParseCq(&u_, "? :- E(x,y)");
  HomSearch search(q.atoms(), &inst);
  EXPECT_EQ(search.FindAll().size(), 2u);
  EXPECT_EQ(search.FindAll({}, 1).size(), 1u);
}

TEST_F(HomTest, MapsIntoAndEquivalence) {
  Instance a = MustParseInstance(&u_, "E(a,b).");
  Universe u2;
  // Instances share the universe in practice; build the bigger one in u_.
  Instance b = MustParseInstance(&u_, "E(a,b). E(b,c).");
  EXPECT_TRUE(MapsInto(a, b));
  EXPECT_FALSE(MapsInto(b, a));  // E(b,c) has no image fixing constants
  EXPECT_FALSE(HomEquivalent(a, b));
  EXPECT_TRUE(HomEquivalent(a, a));
}

TEST_F(HomTest, NullsAreFlexible) {
  PredicateId e = u_.InternPredicate("E", 2);
  Term a = u_.InternConstant("a");
  Term n = u_.FreshNull();
  Instance with_null(&u_);
  with_null.AddAtom(Atom(e, {a, n}));
  Instance with_const = MustParseInstance(&u_, "E(a,b).");
  // The null can map onto b, but b cannot map onto the null.
  EXPECT_TRUE(MapsInto(with_null, with_const));
  EXPECT_FALSE(MapsInto(with_const, with_null));
}

TEST_F(HomTest, SubsumptionDirection) {
  // E(x,y) is more general than E(x,x).
  Cq general = MustParseCq(&u_, "? :- E(x,y)");
  Cq specific = MustParseCq(&u_, "? :- E(z,z)");
  EXPECT_TRUE(Subsumes(general, specific));
  EXPECT_FALSE(Subsumes(specific, general));
}

TEST_F(HomTest, SubsumptionRespectsAnswers) {
  Cq general = MustParseCq(&u_, "?(x,y) :- E(x,y)");
  Cq swapped = MustParseCq(&u_, "?(v,w) :- E(w,v)");
  // E(x,y) with answers (x,y) does not subsume E(w,v) with answers (v,w):
  // the hom must send x↦v, y↦w but the edge goes the other way.
  EXPECT_FALSE(Subsumes(general, swapped));
  EXPECT_TRUE(Subsumes(general, general));
}

TEST_F(HomTest, CoreRemovesRedundantAtoms) {
  // E(x,y) ∧ E(x,z) cores to E(x,y) for a Boolean query.
  Cq q = MustParseCq(&u_, "? :- E(x,y), E(x,z)");
  Cq core = Core(q, &u_);
  EXPECT_EQ(core.atoms().size(), 1u);
}

TEST_F(HomTest, CoreKeepsAnswerVariables) {
  Cq q = MustParseCq(&u_, "?(y,z) :- E(x,y), E(x,z)");
  Cq core = Core(q, &u_);
  // y and z are answer variables: both atoms must survive.
  EXPECT_EQ(core.atoms().size(), 2u);
}

TEST_F(HomTest, CoreOfTriangleWithLoopIsLoop) {
  // A triangle plus a loop retracts onto the loop.
  Cq q = MustParseCq(&u_, "? :- E(x,y), E(y,z), E(z,x), E(w,w)");
  Cq core = Core(q, &u_);
  EXPECT_EQ(core.atoms().size(), 1u);
  EXPECT_EQ(core.atoms()[0].arg(0), core.atoms()[0].arg(1));
}

TEST_F(HomTest, SeedContradictionReturnsNothing) {
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  Cq q = MustParseCq(&u_, "?(x) :- E(x,y)");
  HomSearch search(q.atoms(), &inst);
  Substitution seed;
  seed.Bind(u_.FindConstant("b"), u_.FindConstant("a"));
  EXPECT_FALSE(search.Exists(seed));
}

// Serializes a homomorphism restricted to the variables of `atoms` into a
// canonical, comparable form.
std::vector<std::pair<std::uint32_t, std::uint32_t>> Canonical(
    const std::vector<Atom>& atoms, const Substitution& h) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const Atom& a : atoms) {
    for (Term t : a.args()) {
      if (t.IsRigid()) continue;
      out.emplace_back(t.raw(), h.Apply(t).raw());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST_F(HomTest, ForEachDeltaMatchesFilteredForEach) {
  // Two insertion waves; the delta-anchored enumeration must visit exactly
  // the homomorphisms that use at least one second-wave atom, each once.
  Instance grown = MustParseInstance(&u_, "E(a,b). E(b,c). E(c,a).");
  const std::uint32_t wave1 = static_cast<std::uint32_t>(grown.size());
  Instance extras = MustParseInstance(&u_, "E(c,d). E(d,a). E(b,d).");
  for (const Atom& extra : extras.atoms()) grown.AddAtom(extra);
  const std::uint32_t wave2 = static_cast<std::uint32_t>(grown.size());
  Cq q = MustParseCq(&u_, "? :- E(x,y), E(y,z)");
  HomSearch search(q.atoms(), &grown);

  // Brute force: all homomorphisms, filtered by "some image in the delta".
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> expected;
  search.ForEach({}, [&](const Substitution& h) {
    bool touches_delta = false;
    for (const Atom& a : q.atoms()) {
      std::size_t idx = grown.IndexOf(h.Apply(a));
      EXPECT_NE(idx, SIZE_MAX);
      if (idx >= wave1 && idx < wave2) touches_delta = true;
    }
    if (touches_delta) expected.push_back(Canonical(q.atoms(), h));
    return true;
  });

  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> actual;
  std::size_t visited = search.ForEachDelta(
      {}, wave1, wave2, [&](const Term* image) {
        actual.push_back(Canonical(q.atoms(), search.ToSubstitution(image)));
        return true;
      });
  EXPECT_EQ(visited, actual.size());
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);  // same multiset: exactly once each
  EXPECT_FALSE(actual.empty());
}

TEST_F(HomTest, ForEachDeltaEmptyOrInvertedDelta) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(b,c).");
  Cq q = MustParseCq(&u_, "? :- E(x,y)");
  HomSearch search(q.atoms(), &inst);
  EXPECT_EQ(search.ForEachDelta({}, 2, 2, [](const Term*) {
    return true;
  }), 0u);
  EXPECT_EQ(search.ForEachDelta({}, 3, 1, [](const Term*) {
    return true;
  }), 0u);
  // Delta covering the whole instance behaves like ForEach.
  EXPECT_EQ(search.ForEachDelta(
                {}, 0, static_cast<std::uint32_t>(inst.size()),
                [](const Term*) { return true; }),
            2u);
}

TEST_F(HomTest, ForEachDeltaHonorsSeedAndEarlyStop) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(a,c). E(b,c).");
  Cq q = MustParseCq(&u_, "?(x) :- E(x,y)");
  HomSearch search(q.atoms(), &inst);
  Substitution seed;
  seed.Bind(q.answers()[0], u_.FindConstant("a"));
  // Delta = the last two atoms; only E(a,c) extends the seed.
  std::size_t n = search.ForEachDelta(seed, 2, 4, [&](const Term* image) {
    const Substitution h = search.ToSubstitution(image);
    EXPECT_EQ(h.Apply(q.answers()[0]), u_.FindConstant("a"));
    return true;
  });
  EXPECT_EQ(n, 1u);
  // Early stop after the first visit.
  std::size_t stops = search.ForEachDelta({}, 1, 4, [](const Term*) {
    return false;
  });
  EXPECT_EQ(stops, 1u);
}

TEST_F(HomTest, OrderForSearchPrefersFewerFreshVariables) {
  // Regression: the documented "fewer fresh variables" tiebreak was not
  // implemented — among atoms with equal shared/rigid counts, the one that
  // introduces fewer fresh variables must be searched first.
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  Term x = u_.InternVariable("x");
  Term y = u_.InternVariable("y");
  Term z = u_.InternVariable("z");
  PredicateId p3 = u_.InternPredicate("P", 3);
  PredicateId q2 = u_.InternPredicate("Q", 2);
  Atom wide(p3, {x, y, z});
  Atom narrow(q2, {x, y});
  HomSearch search({wide, narrow}, &inst);
  ASSERT_EQ(search.ordered_source().size(), 2u);
  EXPECT_EQ(search.ordered_source()[0], narrow);
  EXPECT_EQ(search.ordered_source()[1], wide);
  // Repeated variables only count once: R(w,w) introduces one fresh
  // variable and beats Q(x,y) with two.
  PredicateId r2 = u_.InternPredicate("R", 2);
  Term w = u_.InternVariable("w");
  Atom repeated(r2, {w, w});
  HomSearch search2({narrow, repeated}, &inst);
  EXPECT_EQ(search2.ordered_source()[0], repeated);
}

TEST_F(HomTest, FindOneKeepsSeedBindingsOutsideTheSource) {
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  Cq q = MustParseCq(&u_, "?(x) :- E(x,y)");
  HomSearch search(q.atoms(), &inst);
  const Term w = u_.InternVariable("w");
  const Term c = u_.InternConstant("c");
  Substitution seed;
  seed.Bind(w, c);
  const std::optional<Substitution> h = search.FindOne(seed);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->Apply(w), c);
  EXPECT_EQ(h->Apply(q.answers()[0]), u_.FindConstant("a"));
  EXPECT_EQ(h->size(), 3u);
}

TEST_F(HomTest, RigidSelfBindingSeedIsAccepted) {
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  Cq q = MustParseCq(&u_, "? :- E(a,y)");
  HomSearch search(q.atoms(), &inst);
  Substitution seed;
  seed.Bind(u_.FindConstant("a"), u_.FindConstant("a"));
  EXPECT_TRUE(search.Exists(seed));
  EXPECT_EQ(search.FindAll(seed).size(), 1u);
}

TEST_F(HomTest, InjectiveSeedCollidingWithRigidTermYieldsNothing) {
  Instance inst = MustParseInstance(&u_, "E(a,a). E(a,b).");
  Cq q = MustParseCq(&u_, "? :- E(a,x)");
  HomSearch search(q.atoms(), &inst, {.injective = true});
  Substitution seed;
  seed.Bind(q.atoms()[0].arg(1), u_.FindConstant("a"));
  EXPECT_FALSE(search.Exists(seed));
  EXPECT_EQ(search.FindAll(seed).size(), 0u);
  // Without the collision the same search succeeds.
  EXPECT_TRUE(search.Exists());
}

// --- Oracle test ------------------------------------------------------------
//
// Small random instances and sources (constants, repeated variables, nulls
// on both sides), checked against a brute-force oracle that tries every map
// from the flexible source terms into the active domain.

using Image = std::vector<Term>;

struct OracleCase {
  std::vector<Atom> source;
  Substitution seed;
  bool injective = false;
};

// Every homomorphism extending `seed` as its image of `slots`, in no
// particular order.
std::vector<Image> BruteForce(const Instance& target, const OracleCase& c,
                              const std::vector<Term>& slots) {
  const std::vector<Term>& domain = target.ActiveDomain();
  std::vector<Image> out;
  if (domain.empty() && !slots.empty()) return out;
  std::vector<std::size_t> pick(slots.size(), 0);
  while (true) {
    Substitution h;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      h.Bind(slots[i], domain[pick[i]]);
    }
    bool ok = true;
    for (const auto& [from, to] : c.seed.entries()) {
      if (h.Apply(from) != to) ok = false;
    }
    for (const Atom& a : c.source) {
      if (target.IndexOf(h.Apply(a)) == SIZE_MAX) ok = false;
    }
    if (ok && c.injective) {
      std::unordered_set<Term> terms;
      std::unordered_set<Term> images;
      for (const Atom& a : c.source) {
        for (Term t : a.args()) {
          if (terms.insert(t).second && !images.insert(h.Apply(t)).second) {
            ok = false;
          }
        }
      }
    }
    if (ok) out.push_back(h.ApplyTuple(slots));
    std::size_t i = 0;
    while (i < pick.size() && ++pick[i] == domain.size()) pick[i++] = 0;
    if (i == pick.size()) break;
  }
  return out;
}

std::vector<Image> Sorted(std::vector<Image> images) {
  std::sort(images.begin(), images.end());
  return images;
}

class HomOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"a", "b", "c"}) {
      constants_.push_back(u_.InternConstant(name));
    }
    for (const char* name : {"x", "y", "z"}) {
      variables_.push_back(u_.InternVariable(name));
    }
    target_nulls_ = {u_.FreshNull(), u_.FreshNull()};
    source_null_ = u_.FreshNull();
    preds_ = {u_.InternPredicate("U", 1), u_.InternPredicate("E", 2),
              u_.InternPredicate("T", 3)};
  }

  Instance RandomTarget(Rng* rng) {
    Instance target(&u_);
    const std::size_t atoms = 4 + rng->Below(8);
    for (std::size_t i = 0; i < atoms; ++i) {
      const PredicateId pred = preds_[rng->Below(preds_.size())];
      std::vector<Term> args;
      for (int p = 0; p < u_.ArityOf(pred); ++p) {
        args.push_back(rng->Below(4) == 0
                           ? target_nulls_[rng->Below(target_nulls_.size())]
                           : constants_[rng->Below(constants_.size())]);
      }
      target.AddAtom(Atom(pred, std::move(args)));
    }
    return target;
  }

  OracleCase RandomCase(const Instance& target, Rng* rng) {
    OracleCase c;
    const std::size_t atoms = 1 + rng->Below(3);
    for (std::size_t i = 0; i < atoms; ++i) {
      const PredicateId pred = preds_[rng->Below(preds_.size())];
      std::vector<Term> args;
      for (int p = 0; p < u_.ArityOf(pred); ++p) {
        const std::uint64_t kind = rng->Below(8);
        args.push_back(kind == 0   ? constants_[rng->Below(2)]
                       : kind == 1 ? source_null_
                                   : variables_[rng->Below(2 + (i > 0))]);
      }
      c.source.push_back(Atom(pred, std::move(args)));
    }
    c.injective = rng->Flip(0.3);
    if (rng->Flip(0.25) && !target.ActiveDomain().empty()) {
      const Term var = c.source[0].arg(0);
      if (!var.IsRigid()) {
        const std::vector<Term>& domain = target.ActiveDomain();
        c.seed.Bind(var, domain[rng->Below(domain.size())]);
      }
    }
    return c;
  }

  Universe u_;
  std::vector<Term> constants_;
  std::vector<Term> variables_;
  std::vector<Term> target_nulls_;
  Term source_null_;
  std::vector<PredicateId> preds_;
};

TEST_F(HomOracleTest, EveryEntryPointMatchesBruteForce) {
  Rng rng(20240611);
  std::size_t nonempty = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const Instance target = RandomTarget(&rng);
    const OracleCase c = RandomCase(target, &rng);
    const HomSearch search(c.source, &target, {.injective = c.injective});
    const std::vector<Term>& slots = search.slot_order();
    const std::size_t width = slots.size();
    const auto trace = "iteration " + std::to_string(iter);
    const std::vector<Image> oracle = Sorted(BruteForce(target, c, slots));
    if (!oracle.empty()) ++nonempty;

    // ForEachImage, in enumeration order.
    std::vector<Image> serial;
    const auto collect = [&](std::vector<Image>* out) {
      return [out, width](const Term* image) {
        out->emplace_back(image, image + width);
        return true;
      };
    };
    const std::size_t visited = search.ForEachImage(c.seed, collect(&serial));
    EXPECT_EQ(visited, serial.size());
    EXPECT_EQ(Sorted(serial), oracle) << trace;
    EXPECT_EQ(search.Exists(c.seed), !oracle.empty()) << trace;

    // The Substitution adapter sees the same sequence.
    std::vector<Image> adapted;
    search.ForEach(c.seed, [&](const Substitution& h) {
      adapted.push_back(h.ApplyTuple(slots));
      return true;
    });
    EXPECT_EQ(adapted, serial) << trace;

    // Every delta window [lo, hi): exactly the homomorphisms whose image
    // lies below hi and touches the window, each once, also when the
    // window is cut into single-atom anchor chunks.
    const std::uint32_t n = static_cast<std::uint32_t>(target.size());
    search.PrepareDelta();
    for (std::uint32_t lo = 0; lo < n; ++lo) {
      for (std::uint32_t hi = lo + 1; hi <= n; ++hi) {
        std::vector<Image> expected;
        for (const Image& image : oracle) {
          Substitution h;
          for (std::size_t i = 0; i < width; ++i) h.Bind(slots[i], image[i]);
          bool below = true;
          bool touches = false;
          for (const Atom& a : c.source) {
            const std::size_t idx = target.IndexOf(h.Apply(a));
            below = below && idx < hi;
            touches = touches || idx >= lo;
          }
          if (below && touches) expected.push_back(image);
        }
        std::vector<Image> delta;
        search.ForEachDelta(c.seed, lo, hi, collect(&delta));
        EXPECT_EQ(Sorted(delta), expected) << trace << " window " << lo
                                           << "," << hi;
        std::vector<Image> chunked;
        for (std::size_t anchor = 0; anchor < search.source_size();
             ++anchor) {
          for (std::uint32_t k = lo; k < hi; ++k) {
            search.ForEachDeltaAnchor(anchor, lo, hi, k, k + 1, c.seed,
                                      collect(&chunked));
          }
        }
        EXPECT_EQ(Sorted(chunked), expected) << trace << " window " << lo
                                             << "," << hi;
      }
    }

    // Two-chunk ForEachFirstIn partitions reproduce the serial sequence.
    for (std::uint32_t split = 0; split <= n; ++split) {
      std::vector<Image> parts;
      search.ForEachFirstIn(0, split, c.seed, collect(&parts));
      search.ForEachFirstIn(split, n, c.seed, collect(&parts));
      EXPECT_EQ(parts, serial) << trace << " split " << split;
    }
  }
  // The generator must exercise real matches, not just empty answers.
  EXPECT_GT(nonempty, 50u);
}

}  // namespace
}  // namespace bddfc

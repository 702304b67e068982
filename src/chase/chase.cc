#include "chase/chase.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "base/check.h"
#include "base/hash.h"
#include "base/thread_pool.h"
#include "chase/rule_scheduler.h"
#include "chase/segment_engine.h"
#include "exec/parallel_chase.h"
#include "homomorphism/homomorphism.h"
#include "obs/obs.h"

namespace bddfc {

ExecutionConfig ChaseOptions::ResolvedExec() const {
  ExecutionConfig resolved = exec;
  const ExecutionConfig defaults;
  // A deprecated alias overrides its exec twin only when it was set away
  // from its default — the alias defaults equal the exec defaults, so an
  // untouched alias never masks an explicit exec setting. Setting alias
  // AND twin to different non-default values is a configuration bug and
  // CHECK-fails instead of silently preferring the alias.
  if (max_steps != defaults.max_steps) {
    BDDFC_CHECK(exec.max_steps == defaults.max_steps ||
                exec.max_steps == max_steps);
    resolved.max_steps = max_steps;
  }
  if (max_atoms != defaults.max_atoms) {
    BDDFC_CHECK(exec.max_atoms == defaults.max_atoms ||
                exec.max_atoms == max_atoms);
    resolved.max_atoms = max_atoms;
  }
  if (num_threads != defaults.num_threads) {
    BDDFC_CHECK(exec.num_threads == defaults.num_threads ||
                exec.num_threads == num_threads);
    resolved.num_threads = num_threads;
  }
  if (pool != nullptr) {
    BDDFC_CHECK(exec.pool == nullptr || exec.pool == pool);
    resolved.pool = pool;
  }
  if (storage.has_value()) {
    BDDFC_CHECK(!exec.storage.has_value() || *exec.storage == *storage);
    resolved.storage = storage;
  }
  return resolved;
}

namespace {

constexpr std::size_t kInitialLedgerSlots = 64;  // power of two

}  // namespace

std::size_t ObliviousChase::TriggerLedger::Hash(const Term* key) const {
  std::size_t seed = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < width_; ++i) {
    HashCombine(&seed, std::hash<Term>{}(key[i]));
  }
  return seed;
}

std::size_t ObliviousChase::TriggerLedger::FindSlot(const Term* key,
                                                    std::size_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  const std::uint64_t tag = hash >> 32;
  std::size_t slot = hash & mask;
  while (slots_[slot] != 0) {
    const std::uint64_t stored = slots_[slot];
    if ((stored >> 32) == tag) {
      const Term* entry =
          keys_.data() + ((stored & 0xffffffffu) - 1) * width_;
      if (std::equal(key, key + width_, entry)) return slot;
    }
    slot = (slot + 1) & mask;
  }
  return slot;
}

bool ObliviousChase::TriggerLedger::Contains(const Term* key) const {
  return count_ != 0 && slots_[FindSlot(key, Hash(key))] != 0;
}

bool ObliviousChase::TriggerLedger::Insert(const Term* key) {
  if (2 * (count_ + 1) >= slots_.size()) {
    // Grow to keep the load at most 50%, re-placing every identity.
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialLedgerSlots : 2 * old.size(), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint64_t stored : old) {
      if (stored == 0) continue;
      const std::size_t hash =
          Hash(keys_.data() + ((stored & 0xffffffffu) - 1) * width_);
      std::size_t slot = hash & mask;
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = stored;
    }
  }
  const std::size_t hash = Hash(key);
  const std::size_t slot = FindSlot(key, hash);
  if (slots_[slot] != 0) return false;
  keys_.insert(keys_.end(), key, key + width_);
  ++count_;
  slots_[slot] = (static_cast<std::uint64_t>(hash >> 32) << 32) | count_;
  return true;
}

void ObliviousChase::TriggerLedger::Clear() {
  keys_.clear();
  slots_.clear();
  count_ = 0;
}

ObliviousChase::ObliviousChase(const Instance& database, RuleSet rules,
                               ChaseOptions options)
    : exec_(options.ResolvedExec()),
      instance_(database, exec_.storage.value_or(database.storage())),
      rules_(std::move(rules)),
      options_(options) {
  atoms_at_step_.push_back(instance_.size());
  atom_record_.assign(instance_.size(), kDatabaseRecord);
  rule_searches_.reserve(rules_.size());
  for (const Rule& rule : rules_) {
    rule_searches_.emplace_back(rule.body(), &instance_);
    // Trigger collection copies slot images as body_vars() rows.
    BDDFC_CHECK(rule_searches_.back().slot_order() == rule.body_vars());
  }
  // Frontier-variable positions: the restricted head check seeds from them
  // and the segment engine's semi-oblivious trigger identity projects
  // through them. Cheap enough to build unconditionally.
  frontier_positions_.reserve(rules_.size());
  for (const Rule& rule : rules_) {
    std::vector<std::size_t> positions;
    positions.reserve(rule.frontier().size());
    for (Term v : rule.frontier()) {
      const auto& vars = rule.body_vars();
      positions.push_back(static_cast<std::size_t>(
          std::find(vars.begin(), vars.end(), v) - vars.begin()));
    }
    frontier_positions_.push_back(std::move(positions));
  }
  heads_.reserve(rules_.size());
  for (const Rule& rule : rules_) {
    const std::vector<Term>& vars = rule.body_vars();
    const std::vector<Term>& existentials = rule.existentials();
    HeadProjection head;
    for (const Atom& atom : rule.head()) {
      std::vector<int> slots;
      slots.reserve(atom.arity());
      for (Term t : atom.args()) {
        int slot = -1;
        if (t.IsVariable()) {
          auto it = std::find(vars.begin(), vars.end(), t);
          if (it != vars.end()) {
            slot = static_cast<int>(it - vars.begin());
          } else {
            it = std::find(existentials.begin(), existentials.end(), t);
            BDDFC_CHECK(it != existentials.end());
            slot = static_cast<int>(vars.size() + (it - existentials.begin()));
          }
        }
        slots.push_back(slot);
      }
      head.atoms.push_back(atom);
      head.slots.push_back(std::move(slots));
    }
    heads_.push_back(std::move(head));
  }
  if (options_.variant == ChaseVariant::kRestricted) {
    // Cached head searches (they see every atom appended to instance_),
    // shared by the serial check and the concurrent precheck.
    head_searches_.reserve(rules_.size());
    for (const Rule& rule : rules_) {
      head_searches_.emplace_back(rule.head(), &instance_);
    }
  }
  if (exec_.pool != nullptr) {
    num_threads_ = exec_.pool->num_workers() + 1;
    if (num_threads_ > 1) {
      parallel_ = std::make_unique<exec::ParallelChase>(exec_.pool);
    }
  } else {
    num_threads_ = ThreadPool::ResolveThreadCount(exec_.num_threads);
    if (num_threads_ > 1) {
      parallel_ = std::make_unique<exec::ParallelChase>(num_threads_);
    }
  }
  if (exec_.engine == ChaseEngine::kSegment) {
    segment_ = std::make_unique<SegmentEngine>(&instance_, &rules_);
  }
  if (exec_.schedule == ChaseSchedule::kStratified) {
    scheduler_ = RuleScheduler::Stratified(rules_, universe(),
                                           options_.naive_enumeration);
  } else {
    scheduler_ = RuleScheduler::Flat(rules_.size());
  }
  use_ledger_ = options_.variant == ChaseVariant::kSemiOblivious ||
                options_.naive_enumeration;
  ledgers_.reserve(rules_.size());
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    ledgers_.emplace_back(options_.variant == ChaseVariant::kSemiOblivious
                              ? frontier_positions_[r].size()
                              : rules_[r].body_vars().size());
  }
  round_.Reset(rules_.size());
  metrics_ = obs::ResolveMetrics(exec_.metrics);
  metric_step_ = metrics_->GetGauge("chase.step");
  metric_atoms_ = metrics_->GetGauge("chase.atoms");
  metric_fired_ = metrics_->GetCounter("chase.triggers_fired");
  metric_atoms_->Set(static_cast<std::int64_t>(instance_.size()));
  scheduler_->set_metrics(metrics_);
}

std::size_t ObliviousChase::TriggersFired() const {
  return scheduler_->stats().fired_total();
}

ObliviousChase::~ObliviousChase() = default;

bool ObliviousChase::HeadSatisfied(std::size_t rule,
                                   const Term* image) const {
  const std::vector<Term>& frontier = rules_[rule].frontier();
  const std::vector<std::size_t>& positions = frontier_positions_[rule];
  Substitution frontier_seed;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    frontier_seed.Bind(frontier[i], image[positions[i]]);
  }
  return head_searches_[rule].Exists(frontier_seed);
}

const Term* ObliviousChase::IdentityOf(std::size_t rule, const Term* image) {
  if (options_.variant != ChaseVariant::kSemiOblivious) return image;
  identity_scratch_.clear();
  for (std::size_t p : frontier_positions_[rule]) {
    identity_scratch_.push_back(image[p]);
  }
  return identity_scratch_.data();
}

void ObliviousChase::Fire(std::size_t rule_index, const Term* image,
                          int step) {
  const Rule& rule = rules_[rule_index];
  const std::size_t num_vars = rule.body_vars().size();
  const std::size_t num_existentials = rule.existentials().size();
  slot_values_.assign(image, image + num_vars);
  for (std::size_t e = 0; e < num_existentials; ++e) {
    slot_values_.push_back(universe()->FreshNull());
  }
  // The trigger's provenance record, appended once a new atom or null
  // needs it.
  std::uint32_t record = kDatabaseRecord;
  const auto record_of = [&]() {
    if (record == kDatabaseRecord) {
      record = static_cast<std::uint32_t>(records_.size());
      BDDFC_CHECK_LT(record, kDatabaseRecord);
      records_.push_back({static_cast<std::uint32_t>(rule_index), step,
                          record_terms_.size()});
      record_terms_.insert(record_terms_.end(), slot_values_.begin(),
                           slot_values_.end());
    }
    return record;
  };
  HeadProjection& head = heads_[rule_index];
  for (std::size_t k = 0; k < head.atoms.size(); ++k) {
    Atom& out = head.atoms[k];
    const std::vector<int>& slots = head.slots[k];
    for (std::size_t j = 0; j < slots.size(); ++j) {
      if (slots[j] >= 0) out.set_arg(j, slot_values_[slots[j]]);
    }
    if (!instance_.AddAtom(out)) {
      ++round_.atoms_duplicate[rule_index];
      continue;
    }
    ++round_.atoms_new[rule_index];
    atom_record_.push_back(record_of());
  }
  for (std::size_t e = 0; e < num_existentials; ++e) {
    const Term null = slot_values_[num_vars + e];
    // FreshNull counts up and firing is serial, so the nulls of one chase
    // arrive ascending even when other chases share the universe.
    BDDFC_CHECK(null_records_.empty() || null_records_.back().first < null);
    null_records_.emplace_back(null, record_of());
  }
}

ObliviousChase::StepOutcome ObliviousChase::StepOnce() {
  // Phase 1 — enumerate the round's candidate triggers as flat rows (rule,
  // body image). After the first round the delta-driven (semi-naive)
  // enumerator only searches for body images anchored in the window
  // [delta_cursor_, size) of atoms appended since the last completed
  // round: a trigger is new precisely when at least one of its body atoms
  // maps into that window, and the anchor decomposition finds each such
  // trigger exactly once — nothing is missed and nothing old is
  // re-derived. With naive_enumeration every homomorphism is re-enumerated
  // and the fired ledger filters the old ones out. With num_threads > 1
  // the same enumeration fans out over the executor's pool — the instance
  // is read-only until the firing phase, and the canonical sort below
  // erases the nondeterministic batch order.
  BDDFC_OBS_SPAN(step_span, "chase", "chase.step");
  step_span.Arg("step", steps_executed_ + 1);
  const bool full = options_.naive_enumeration || delta_cursor_ == 0;
  const std::uint32_t delta_end =
      static_cast<std::uint32_t>(instance_.size());
  // The scheduler decides which rules enumerate this round and with which
  // window: the flat schedule hands every rule the global window above;
  // the stratified one plans only the active strata's rules, each at its
  // own delta cursor.
  const std::vector<exec::RuleJob> jobs =
      scheduler_->PlanRound(full, full ? 0 : delta_cursor_, instance_);
  exec::TriggerRows rows;
  BDDFC_OBS_SPAN(enumerate_span, "chase", "chase.enumerate");
  if (segment_ != nullptr) {
    // Segment-at-a-time enumeration: one bulk merge-join plan execution
    // per (rule, anchor) writes the step's whole candidate segment — the
    // same candidate set the trigger-at-a-time paths below collect, so
    // the firing phase (and hence the whole chase) is bit-identical
    // across engines. The engine is inherently delta-driven;
    // naive_enumeration degrades it to a full [0, size) enumeration via a
    // `full` job, matching the naive trigger engine.
    segment_->CollectJobs(jobs, delta_end,
                          parallel_ != nullptr ? parallel_->pool() : nullptr,
                          &rows);
  } else {
    // The rule searches bind in body_vars() slot order, so a homomorphism's
    // slot image already is the trigger row.
    const auto collect = [this](std::size_t r, const Term* image,
                                exec::TriggerRows* batch) {
      const std::size_t width = rules_[r].body_vars().size();
      std::copy(image, image + width, batch->Append(r, width));
    };
    if (parallel_ != nullptr) {
      parallel_->CollectJobs(&rule_searches_, jobs, delta_end, collect,
                             &rows);
    } else {
      for (const exec::RuleJob& job : jobs) {
        const std::size_t r = job.rule_index;
        BDDFC_OBS_SPAN(search_span, "chase", "chase.hom_search");
        search_span.Arg("rule", r);
        const auto visit = [&](const Term* image) {
          collect(r, image, &rows);
          return true;
        };
        if (job.full) {
          rule_searches_[r].ForEachImage({}, visit);
        } else {
          rule_searches_[r].ForEachDelta({}, job.delta_begin, delta_end,
                                         visit);
        }
      }
    }
  }
  enumerate_span.Arg("candidates", rows.size()).End();
  round_.Reset(rules_.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ++round_.candidates[rows.rule(i)];
  }

  // Phase 2 — where the ledger is kept (or a cancelled round seeded it,
  // see below), drop the candidates whose identity already fired.
  if (use_ledger_ || ledger_seeded_) {
    BDDFC_OBS_SPAN(ledger_span, "chase", "chase.ledger_filter");
    rows.Filter([&](std::size_t i) {
      const std::size_t r = rows.rule(i);
      const TriggerLedger& ledger = ledgers_[r];
      if (ledger.empty() || !ledger.Contains(IdentityOf(r, rows.image(i)))) {
        return true;
      }
      ++round_.ledger_rejected[r];
      return false;
    });
    ledger_span.Arg("kept", rows.size()).End();
  }

  // Phase 3 — canonical firing order. Sorting by (rule, body image) makes
  // the step independent of enumeration order, so the naive, semi-naive
  // and parallel engines produce bit-identical instances, null names and
  // provenance. The stratified schedule refines the order with the
  // restraint-topological firing rank: restrainers fire first, so the
  // restricted variant sees alternative head matches in time to skip the
  // triggers they pre-empt (still deterministic — rank, then the
  // canonical key).
  BDDFC_OBS_SPAN(sort_span, "chase", "chase.sort");
  exec::SortCanonical(&rows, scheduler_->FiringRanks());
  sort_span.Arg("rows", rows.size()).End();

  // Restricted precheck: satisfaction is monotone (the instance only
  // grows), so any candidate whose head is satisfied *now* — before this
  // step fires anything — would also be skipped by the serial check. The
  // firing loop trusts positive prechecks and re-checks negatives only
  // once the step has added atoms.
  const bool restricted = options_.variant == ChaseVariant::kRestricted;
  std::vector<char> satisfied_at_start;
  if (parallel_ != nullptr && restricted && !rows.empty()) {
    parallel_->ParallelCheck(
        rows.size(),
        [&](std::size_t i) {
          return HeadSatisfied(rows.rule(i), rows.image(i));
        },
        &satisfied_at_start);
  }
  const std::size_t step_start_size = instance_.size();

  // Phase 4 — fire, in canonical order: project each trigger's head atoms
  // out of its row (HeadProjection) and insert them.
  StepOutcome outcome;
  BDDFC_OBS_SPAN(fire_span, "chase", "chase.fire");
  const int step = static_cast<int>(steps_executed_) + 1;
  std::size_t fired_this_step = 0;
  std::size_t ci = 0;
  for (; ci < rows.size(); ++ci) {
    if (instance_.size() >= exec_.max_atoms) {
      hit_bounds_ = true;
      outcome.truncated = true;
      break;
    }
    // Cooperative cancellation (chase_cli's SIGINT path). Treated like an
    // atom-budget truncation so the scheduler's cursors stay valid; never
    // set during tests, so determinism is untouched.
    if (obs::CancelRequested()) {
      outcome.truncated = true;
      break;
    }
    const std::size_t r = rows.rule(ci);
    const Term* image = rows.image(ci);
    // Claims the identity: duplicates within the step (possible under the
    // semi-oblivious identity) are skipped, keeping the canonically
    // smallest trigger as the representative.
    if (use_ledger_ && !ledgers_[r].Insert(IdentityOf(r, image))) {
      ++round_.ledger_rejected[r];
      continue;
    }

    if (restricted) {
      // Fire only if no extension of the trigger already satisfies the
      // head. The parallel precheck answers this against the step-start
      // instance; that answer stands unless atoms were fired in between (a
      // satisfied head stays satisfied, an unsatisfied one must be
      // re-checked).
      bool satisfied;
      if (!satisfied_at_start.empty()) {
        satisfied = satisfied_at_start[ci] != 0 ||
                    (instance_.size() != step_start_size &&
                     HeadSatisfied(r, image));
      } else {
        satisfied = HeadSatisfied(r, image);
      }
      if (satisfied) continue;  // never reconsider
    }

    Fire(r, image, step);
    ++round_.fired[r];
    outcome.fired = true;
    // Refresh the live-atom gauge periodically so the progress heartbeat
    // tracks long firing phases, not just step boundaries.
    if ((++fired_this_step & 0xFF) == 0) {
      metric_atoms_->Set(static_cast<std::int64_t>(instance_.size()));
    }
  }
  fire_span.Arg("fired", fired_this_step)
      .Arg("atoms", instance_.size())
      .End();
  metric_fired_->Add(fired_this_step);
  metric_atoms_->Set(static_cast<std::int64_t>(instance_.size()));
  obs::CounterEvent("chase", "chase.atoms_total", instance_.size());
  // Close the round: accumulate per-rule counters, advance the stratified
  // schedule's cursors and saturation flags (skipped when the atom budget
  // truncated the firing phase — unfired candidates must stay findable).
  scheduler_->OnRoundEnd(delta_end, round_, outcome.truncated);
  if (!outcome.truncated) {
    // The next round's window starts past the atoms this one enumerated;
    // any identities a cancelled round recorded can no longer come up.
    delta_cursor_ = delta_end;
    if (ledger_seeded_) {
      for (TriggerLedger& ledger : ledgers_) ledger.Clear();
      ledger_seeded_ = false;
    }
  } else if (!use_ledger_ && !hit_bounds_) {
    // Cancelled mid-round (the atom budget's truncation is final): the
    // window cursors stay put, so a resumed run enumerates this round's
    // window again. Record the triggers it already passed so they do not
    // fire twice.
    for (std::size_t i = 0; i < ci; ++i) {
      ledgers_[rows.rule(i)].Insert(IdentityOf(rows.rule(i), rows.image(i)));
    }
    if (ci > 0) ledger_seeded_ = true;
  }
  return outcome;
}

std::size_t ObliviousChase::Run() { return RunSteps(exec_.max_steps); }

std::size_t ObliviousChase::RunSteps(std::size_t k) {
  while (steps_executed_ < k && !saturated_ && !hit_bounds_ &&
         !obs::CancelRequested()) {
    StepOutcome outcome = StepOnce();
    if (outcome.fired) {
      // Only steps that actually fired count; a bound that stops the chase
      // before any trigger of a step fires must not add a phantom step.
      ++steps_executed_;
      atoms_at_step_.push_back(instance_.size());
      last_step_truncated_ = outcome.truncated;
      metric_step_->Set(static_cast<std::int64_t>(steps_executed_));
    } else if (!outcome.truncated) {
      // A no-fire round is saturation under the flat schedule. Under the
      // stratified one it may instead be a transition: the round
      // saturated its active strata, whose dependents activate next
      // round. Transition rounds are not chase steps.
      if (scheduler_->AllSaturated()) {
        saturated_ = true;
        obs::Instant("chase", "chase.saturated", "step", steps_executed_);
      }
    }
  }
  return steps_executed_;
}

std::size_t ObliviousChase::AddBaseFacts(const std::vector<Atom>& facts) {
  std::size_t added = 0;
  for (const Atom& fact : facts) {
    for (Term t : fact.args()) BDDFC_CHECK(!t.IsVariable());
    if (!instance_.AddAtom(fact)) continue;
    atom_record_.push_back(kDatabaseRecord);
    ++added;
  }
  if (added == 0) return 0;
  // The appended atoms sit above delta_cursor_, so the next StepOnce's
  // window [delta_cursor_, size) covers them — plus, when the last round
  // stopped at the step bound, the pending atoms of the last step, whose
  // window was never enumerated. Before the first round the full instance
  // is enumerated anyway. Keeping the per-step atom counts consistent,
  // the inserted facts count into the segment of the last executed step
  // (they are step-0 database atoms individually, see StepOfAtom).
  atoms_at_step_.back() = instance_.size();
  metric_atoms_->Set(static_cast<std::int64_t>(instance_.size()));
  obs::Instant("chase", "chase.add_base_facts", "added", added);
  saturated_ = false;
  // The stratified schedule re-checks every stratum in topological order;
  // its per-rule cursors stay valid (the new atoms sit above all of them).
  scheduler_->OnFactsInserted();
  return added;
}

std::vector<std::string> ObliviousChase::CanonicalAtoms() const {
  std::unordered_map<Term, std::string> null_names;
  const bool semi = options_.variant == ChaseVariant::kSemiOblivious;
  std::function<const std::string&(Term)> null_name =
      [&](Term t) -> const std::string& {
    auto it = null_names.find(t);
    if (it != null_names.end()) return it->second;
    const TriggerRecord* record = RecordOfNull(t);
    BDDFC_CHECK(record != nullptr);
    const Rule& rule = rules_[record->rule];
    const Term* slots = record_terms_.data() + record->offset;
    const std::size_t num_vars = rule.body_vars().size();
    std::size_t existential_index = 0;
    for (std::size_t i = 0; i < rule.existentials().size(); ++i) {
      if (slots[num_vars + i] == t) {
        existential_index = i;
        break;
      }
    }
    // The identity images: the frontier's (semi-oblivious) or the whole
    // body image.
    std::vector<std::size_t> id_positions;
    if (semi) {
      id_positions = frontier_positions_[record->rule];
    } else {
      for (std::size_t i = 0; i < num_vars; ++i) id_positions.push_back(i);
    }
    std::string name = "f";
    name += std::to_string(record->rule);
    name += '_';
    name += std::to_string(existential_index);
    name += '(';
    for (std::size_t i = 0; i < id_positions.size(); ++i) {
      if (i > 0) name += ',';
      Term image = slots[id_positions[i]];
      if (image.IsNull()) {
        name += null_name(image);
      } else {
        name += universe()->TermName(image);
      }
    }
    name += ')';
    return null_names.emplace(t, std::move(name)).first->second;
  };
  std::vector<std::string> out;
  out.reserve(instance_.size());
  for (const Atom& atom : instance_.atoms()) {
    std::string s = universe()->PredicateName(atom.pred());
    if (!atom.IsNullary()) {
      s += '(';
      for (std::size_t i = 0; i < atom.arity(); ++i) {
        if (i > 0) s += ',';
        Term t = atom.arg(i);
        s += t.IsNull() ? null_name(t) : universe()->TermName(t);
      }
      s += ')';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ObliviousChase::AtomCountAtStep(std::size_t k) const {
  BDDFC_CHECK_LT(k, atoms_at_step_.size());
  return atoms_at_step_[k];
}

Instance ObliviousChase::Prefix(std::size_t k) const {
  Instance out(universe(), instance_.storage());
  const std::size_t limit =
      k < atoms_at_step_.size() ? atoms_at_step_[k] : instance_.size();
  const std::vector<Atom>& all = instance_.atoms();
  out.AddAtoms(all.data(), all.data() + limit);
  return out;
}

int ObliviousChase::StepOfAtom(std::size_t idx) const {
  BDDFC_CHECK_LT(idx, atom_record_.size());
  const std::uint32_t record = atom_record_[idx];
  return record == kDatabaseRecord ? 0 : records_[record].step;
}

Substitution ObliviousChase::TriggerOf(const TriggerRecord& record) const {
  const Rule& rule = rules_[record.rule];
  const std::vector<Term>& vars = rule.body_vars();
  const std::vector<Term>& existentials = rule.existentials();
  const Term* slots = record_terms_.data() + record.offset;
  Substitution trigger;
  for (std::size_t i = 0; i < vars.size(); ++i) trigger.Bind(vars[i], slots[i]);
  for (std::size_t e = 0; e < existentials.size(); ++e) {
    trigger.Bind(existentials[e], slots[vars.size() + e]);
  }
  return trigger;
}

ObliviousChase::AtomProvenance ObliviousChase::ProvenanceOf(
    std::size_t idx) const {
  BDDFC_CHECK_LT(idx, atom_record_.size());
  AtomProvenance provenance;
  const std::uint32_t record = atom_record_[idx];
  if (record == kDatabaseRecord) return provenance;
  const TriggerRecord& r = records_[record];
  provenance.database = false;
  provenance.step = r.step;
  provenance.rule_index = r.rule;
  provenance.trigger = TriggerOf(r);
  return provenance;
}

const ObliviousChase::TriggerRecord* ObliviousChase::RecordOfNull(
    Term null) const {
  if (!null.IsNull()) return nullptr;
  const auto it = std::lower_bound(
      null_records_.begin(), null_records_.end(), null,
      [](const std::pair<Term, std::uint32_t>& entry, Term t) {
        return entry.first < t;
      });
  if (it == null_records_.end() || it->first != null) return nullptr;
  return &records_[it->second];
}

namespace {

void ExplainRec(const ObliviousChase& chase, const Atom& atom, int depth,
                int max_depth, std::string* out) {
  const Universe& u = *chase.universe();
  out->append(2 * depth, ' ');
  std::size_t idx = chase.Result().IndexOf(atom);
  if (idx == SIZE_MAX) {
    *out += u.PredicateName(atom.pred());
    *out += " <- NOT IN CHASE\n";
    return;
  }
  // Render the atom.
  *out += u.PredicateName(atom.pred());
  if (!atom.IsNullary()) {
    *out += '(';
    for (std::size_t i = 0; i < atom.arity(); ++i) {
      if (i > 0) *out += ',';
      *out += u.TermName(atom.arg(i));
    }
    *out += ')';
  }
  const ObliviousChase::AtomProvenance provenance = chase.ProvenanceOf(idx);
  if (provenance.database) {
    *out += "  [database]\n";
    return;
  }
  const Rule& rule = chase.rules()[provenance.rule_index];
  // Built piecewise (GCC 12's -Wrestrict mis-fires on chained string
  // operator+ here).
  *out += "  [step ";
  *out += std::to_string(provenance.step);
  *out += ", rule ";
  if (rule.label().empty()) {
    *out += '#';
    *out += std::to_string(provenance.rule_index);
  } else {
    *out += rule.label();
  }
  *out += "]\n";
  if (depth >= max_depth) {
    out->append(2 * (depth + 1), ' ');
    *out += "...\n";
    return;
  }
  for (const Atom& body_atom : rule.body()) {
    ExplainRec(chase, provenance.trigger.Apply(body_atom), depth + 1,
               max_depth, out);
  }
}

}  // namespace

std::string ObliviousChase::Explain(const Atom& atom, int max_depth) const {
  std::string out;
  ExplainRec(*this, atom, 0, max_depth, &out);
  return out;
}

int ObliviousChase::TimestampOf(Term t) const {
  const TriggerRecord* record = RecordOfNull(t);
  return record == nullptr ? 0 : record->step;
}

std::optional<ChaseTermInfo> ObliviousChase::InfoOf(Term t) const {
  const TriggerRecord* record = RecordOfNull(t);
  if (record == nullptr) return std::nullopt;
  ChaseTermInfo info;
  info.timestamp = record->step;
  info.rule_index = record->rule;
  info.trigger = TriggerOf(*record);
  const Term* slots = record_terms_.data() + record->offset;
  for (std::size_t p : frontier_positions_[record->rule]) {
    info.frontier.push_back(slots[p]);
  }
  return info;
}

bool ObliviousChase::IsDag() const {
  // Kahn's algorithm over the directed graph formed by all binary atoms.
  std::unordered_map<Term, std::vector<Term>> out_edges;
  std::unordered_map<Term, int> in_degree;
  std::size_t num_edges = 0;
  for (const Atom& a : instance_.atoms()) {
    if (!a.IsBinary()) continue;
    if (a.arg(0) == a.arg(1)) return false;  // loop
    out_edges[a.arg(0)].push_back(a.arg(1));
    ++in_degree[a.arg(1)];
    if (in_degree.find(a.arg(0)) == in_degree.end()) in_degree[a.arg(0)] = 0;
    ++num_edges;
  }
  std::vector<Term> queue;
  for (const auto& [t, d] : in_degree) {
    if (d == 0) queue.push_back(t);
  }
  std::size_t processed = 0;
  while (!queue.empty()) {
    Term t = queue.back();
    queue.pop_back();
    ++processed;
    auto it = out_edges.find(t);
    if (it == out_edges.end()) continue;
    for (Term to : it->second) {
      if (--in_degree[to] == 0) queue.push_back(to);
    }
  }
  return processed == in_degree.size();
}

Instance Chase(const Instance& database, const RuleSet& rules,
               ChaseOptions options) {
  ObliviousChase chase(database, rules, options);
  chase.Run();
  return chase.Result();
}

Instance ChaseThenDatalog(const Instance& database,
                          const RuleSet& existential_rules,
                          const RuleSet& datalog_rules,
                          ChaseOptions existential_options,
                          std::size_t datalog_max_steps) {
  Instance first = Chase(database, existential_rules, existential_options);
  // The Datalog phase inherits the existential phase's resolved execution
  // configuration (engine, storage, threads, atom budget) with its own
  // step bound.
  ChaseOptions datalog_options;
  datalog_options.exec = existential_options.ResolvedExec();
  datalog_options.exec.max_steps = datalog_max_steps;
  // Datalog saturation creates no terms; the restricted variant terminates
  // whenever the saturation is finite (it always is on a finite instance).
  datalog_options.variant = ChaseVariant::kRestricted;
  return Chase(first, datalog_rules, datalog_options);
}

}  // namespace bddfc

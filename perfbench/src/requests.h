// The request path without transport: one protocol line in, one reply line
// out, through the same public calls serve::Server makes for it (JsonParse
// + DecodeRequest, ParseCq / ParseInstance, PrepareDetached, SnapshotManager
// Pin + AllOn / CountOn or ApplyFacts, JsonValue::Dump). The traced runs
// replay requests through it to time each layer; every call into a layer
// is wrapped in a span.

#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/reasoner.h"
#include "gen.h"
#include "report.h"
#include "serve/snapshot.h"
#include "trace.h"

namespace perfbench {

class Handler {
 public:
  /// Plans with PrepareDetached and evaluates on the pinned epoch
  /// snapshot; applies adds through SnapshotManager::ApplyFacts.
  explicit Handler(bddfc::serve::SnapshotManager* snapshots);

  std::string Handle(std::string_view line, Tracer* tracer,
                     std::uint64_t request);

  /// Incremental chase time (ms, from ReasonerStats::chase_steps) of every
  /// traced add, in the order of their "snapshot.apply" spans.
  const std::vector<double>& add_chase_ms() const { return add_chase_ms_; }

 private:
  bddfc::serve::SnapshotManager* snapshots_;
  std::uint64_t epoch_ = 0;
  std::map<std::string, std::shared_ptr<const bddfc::PreparedQuery>> plans_;
  std::vector<double> add_chase_ms_;
};

/// What a traced replay returns: the reply to each line, in order, and the
/// sum of the median layer calls of a read (decode, parse, plan, eval,
/// encode), in microseconds.
struct Replay {
  std::vector<std::string> replies;
  double read_layers_us = 0;
};

/// Replays `lines` in order, serially, through a Handler on a
/// SnapshotManager of its own over w's KB (a Universe of its own, too),
/// after preparing "j" and applying w.adds[0, first_add) untraced, so the
/// replayed adds publish the same epochs they did elsewhere. Adds the
/// per-layer request metrics to `r`: the median of each layer call, the
/// add's split into incremental chase and the rest (publish), and the
/// memory per epoch.
Replay ReplayLayers(const Workload& w, const bddfc::ReasonerOptions& options,
                    std::size_t first_add,
                    const std::vector<const std::string*>& lines,
                    Tracer* tracer, Result* r);

/// The answers rendered as sorted rows of names.
AnswerSet Render(const bddfc::Universe& universe,
                 const std::vector<bddfc::AnswerTuple>& answers);

/// A reply's Boolean field; false when absent.
bool ReplyBool(const std::string& reply, const char* key);

/// Answer rows of a reply, sorted; sets `*ok` false when the reply is not a
/// successful query reply.
AnswerSet ReplyAnswers(const std::string& reply, bool* ok);

/// A reply's integer field, or -1 when absent or unparsable.
long long ReplyInt(const std::string& reply, const char* key);

/// True when `reply` is the right answer to read `r` of `w` by the
/// generator's bookkeeping (which holds at every epoch).
bool ReadReplyMatches(const Workload& w, const Request& r,
                      const std::string& reply);

/// Returns the heap's free memory to the OS, so that the next session is
/// built on fresh pages, as the first one of a process is. Without it,
/// sessions alternate between reused and fresh pages, and their set-up and
/// adds between two speeds.
void ReleaseFreeMemory();

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();
/// Current resident set size, in MB.
double CurrentRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_

// The workload runners. Each returns the metrics of one run; `trace`
// selects the per-layer run (spans around every call into a layer) instead
// of the end-to-end run.

#ifndef PERFBENCH_RUNNERS_H_
#define PERFBENCH_RUNNERS_H_

#include <string>
#include <vector>

#include "api/reasoner.h"
#include "gen.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// The per-layer figures of one traced set-up + answer pass.
struct LayerFigures {
  double parse_ms = 0;
  double parse_mb = 0;  // text parsed
  double init_ms = 0;
  double analysis_ms = 0;
  double chase_ms = 0;
  double chase_steps = 0;
  double triggers = 0;
  double atoms_new = 0;
  double nulls = 0;
  double rss_delta_mb = 0;  // across Materialize
  double atoms = 0;         // materialization size
  double prepare_ms = 0;
  double disjuncts = 0;
  double eval_ms = 0;
  double answers = 0;
  double index_builds = 0;
  double run_seals = 0;
  double run_merges = 0;
};

struct PassTimes {
  double setup_s = 0;   // parse + Reasoner construction
  double answer_s = 0;  // ready -> every answer returned
};

/// One pass: parse the workload's text and construct the Reasoner (the
/// set-up), then prepare and answer every query (the answer). With a
/// tracer, the answer runs analysis() and Materialize() explicitly first
/// so each layer gets its own span, and `layers` is filled. The answers
/// are checked outside the timed regions; when `check`, also against the
/// generator's answer sets and, once the session is freed, against a
/// kRewrite session.
PassTimes RunPass(const Workload& w, const bddfc::ReasonerOptions& options,
                  Tracer* tracer, bool check, Result* result,
                  LayerFigures* layers);

/// Adds the per-layer metrics of `layers` to `result`.
void AddLayerMetrics(const LayerFigures& layers, Result* result);

/// Checks that every query whose rewriting saturates answers the same
/// under kRewrite on the base facts as `materialized` (answer sets of
/// w.queries, rendered) does.
void CheckAgainstRewrite(const Workload& w,
                         const std::vector<AnswerSet>& materialized,
                         Result* result);

Result RunBatch(const Workload& w, const bddfc::ReasonerOptions& options,
                double seconds, bool trace, const std::string& trace_out);

Result RunServeMixed(const Workload& w, double seconds, bool trace,
                     const std::string& trace_out);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNERS_H_

// learn_rc: Diagonal Newton weight learning on the RC learning dataset of
// bench/bench_learning.cc for a fixed number of epochs (convergence_tol
// = 0), repeated over the window; then MAP inference under the learned
// weights. The traced pass composes TuffyEngine::Learn from
// SplitEvidenceForLearning, BottomUpGrounder::Ground and LearnWeights and
// checks it learns the same weights bit for bit.

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "ground/bottom_up_grounder.h"
#include "learn/learner.h"
#include "mln/parser.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr uint64_t kMinReps = 2;

/// The RC learning dataset of bench/bench_learning.cc.
Dataset LearnRc(bool smoke) {
  RcParams p;
  p.num_clusters = smoke ? 6 : 30;
  p.papers_per_cluster = 10;
  p.num_categories = 5;
  p.labeled_fraction = 0.6;
  Result<Dataset> r = MakeRcDataset(p);
  if (!r.ok()) {
    std::fprintf(stderr, "RC generation failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

/// The learning problem is fixed (evidence order and learning seed):
/// with these bench_learning settings Diagonal Newton does not converge
/// in 10 epochs on RC-30. The weights run into the +-50 clamp with signs
/// that depend on the MC-SAT trajectory, and so does each epoch's work;
/// a seeded learning problem would make the seed, not the code, set the
/// numbers. The seed drives the MAP run under the learned weights.
LearnOptions LearnRcOptions(const Args& args) {
  LearnOptions opts;
  opts.algorithm = LearnAlgorithm::kDiagonalNewton;
  opts.query_predicates = {"cat"};
  opts.max_epochs = args.smoke ? 3 : 10;
  opts.convergence_tol = 0.0;  // fixed epoch count
  opts.mcsat_samples = 60;
  opts.mcsat_burn_in = 6;
  return opts;
}

/// TuffyEngine::Learn composed from the layers' public functions.
Result<LearnResult> ComposeLearn(const MlnProgram& program,
                                 const EvidenceDb& evidence,
                                 const EngineOptions& eopts,
                                 const LearnOptions& lopts, SpanLog* log) {
  Timed root(log, "learn.compose", "learn");
  TrainingSplit split;
  GroundingResult grounding;
  {
    Timed span(log, "learn.ground", "ground", root.index());
    TUFFY_ASSIGN_OR_RETURN(split, SplitEvidenceForLearning(
                                      program, evidence,
                                      lopts.query_predicates));
    GroundingOptions gopts = eopts.grounding;
    gopts.lazy_closure = false;
    gopts.keep_zero_weight_clauses = true;
    gopts.num_threads = eopts.num_threads;
    BottomUpGrounder grounder(program, split.evidence, gopts,
                              eopts.optimizer);
    TUFFY_ASSIGN_OR_RETURN(grounding, grounder.Ground());
  }
  Timed span(log, "learn.weights", "learn", root.index());
  return LearnWeights(program, grounding, split.labels, lopts);
}

}  // namespace

int RunLearn(const Args& args, Report* report) {
  const Dataset ds = LearnRc(args.smoke);
  const LearnOptions lopts = LearnRcOptions(args);
  EngineOptions eopts;
  eopts.seed = DeriveSeed(args.seed, 2);
  SpanLog log(args.trace);

  // ---- set-up: parse the rendered evidence text, twice before the
  // window and then throughout it (see SetupDue).
  const RenderedEvidence rendered =
      RenderEvidence(ds.program, ds.evidence, /*shuffle_seed=*/1);
  std::vector<double> parse_s;
  MlnProgram program;
  EvidenceDb evidence;
  auto parse = [&]() {
    program = ds.program;
    evidence = EvidenceDb();
    RotatedCpu cpu;
    Timed span(&log, "mln.parse", "mln");
    const double t0 = NowSeconds();
    Status st = ParseEvidence(rendered.text, &program, &evidence);
    parse_s.push_back(NowSeconds() - t0);
    return st.ok() || report->Check("parse_evidence", false, st.ToString());
  };
  if (!parse() || !parse()) return 1;
  report->Check("parsed_evidence_equals_generated",
                SameEvidence(evidence, ds.evidence));

  // ---- measured window: repeated Learn calls (traced: the composition),
  // each followed by MAP under the learned weights and reads of its
  // answer.
  // epoch_ms holds every epoch; call_epoch_ms one sample per Learn call,
  // its mean epoch. The epochs of a call do fixed, different work (on
  // RC-30 four of the ten take ~35 ms, the others ~55 ms), so a quantile
  // over single epochs falls on the edge between the two groups and jumps
  // with small changes in either; the per-call mean does not.
  std::vector<double> epoch_ms, call_epoch_ms, map_s, read_ms,
      read_p90_ms;
  LearnResult first;
  MlnProgram learned;
  double map_cost = 0.0;
  bool repeatable = true;
  uint64_t reps = 0, ops = 0;
  double learning = 0.0;
  size_t epochs = 0, answers = 0;
  const double start = NowSeconds();
  while (reps < kMinReps || NowSeconds() - start < args.seconds) {
    log.SetRun(static_cast<uint32_t>(reps));
    Result<LearnResult> r =
        args.trace ? ComposeLearn(program, evidence, eopts, lopts, &log)
                   : TuffyEngine(program, evidence, eopts).Learn(lopts);
    ++reps;
    ++ops;
    if (!r.ok()) {
      report->CountOps(ops, 1);
      report->Check("learn", false, r.status().ToString());
      return 1;
    }
    if (reps == 1) {
      first = r.value();
      learned = program;
      for (size_t i = 0; i < first.weights.size(); ++i) {
        learned.SetClauseWeight(i, first.weights[i]);
      }
    }
    repeatable = repeatable && r.value().weights == first.weights;
    double call_s = 0.0;
    for (const LearnEpochStats& e : r.value().history) {
      epoch_ms.push_back(e.seconds * 1e3);
      call_s += e.seconds;
    }
    learning += call_s;
    epochs += r.value().history.size();
    if (!r.value().history.empty()) {
      call_epoch_ms.push_back(call_s * 1e3 / r.value().history.size());
    }

    TuffyEngine engine(learned, evidence, eopts);
    double t0 = NowSeconds();
    Result<EngineResult> map = engine.Run();
    map_s.push_back(NowSeconds() - t0);
    ++ops;
    if (!map.ok()) {
      report->CountOps(ops, 1);
      report->Check("map_under_learned_weights", false,
                    map.status().ToString());
      return 1;
    }
    if (reps == 1) map_cost = map.value().total_cost;
    repeatable = repeatable && map.value().total_cost == map_cost;
    Result<ReadSample> read =
        TimeAnswerReads(learned, map.value().grounding.atoms,
                        map.value().truth, "cat", &answers, &ops);
    if (!read.ok()) {
      report->CountOps(ops, 1);
      report->Check("extract_answers", false, read.status().ToString());
      return 1;
    }
    read_ms.push_back(read.value().fastest_ms);
    read_p90_ms.push_back(read.value().p90_ms);
    if (SetupDue(parse_s, NowSeconds() - start) && !parse()) return 1;
  }
  report->CountOps(ops, 0);
  std::printf("learn_rc: %llu Learn calls (%zu epochs), %zu MAP runs, "
              "%zu parses\n",
              static_cast<unsigned long long>(reps), epochs, map_s.size(),
              parse_s.size());
  report->Check("parse_evidence", true,
                std::to_string(parse_s.size()) + " parses");
  report->Check("answers_nonempty", answers > 0,
                std::to_string(answers) + " true cat atoms");
  report->Check("learned_weights_repeatable", repeatable,
                std::to_string(reps) + " repetitions");
  report->Check("fixed_epoch_count",
                first.epochs == lopts.max_epochs &&
                    first.history.size() ==
                        static_cast<size_t>(lopts.max_epochs),
                std::to_string(first.epochs) + " epochs");
  const double expected = map_cost + (args.corrupt_expected ? 1.0 : 0.0);
  report->Check("learned_map_cost_repeatable",
                repeatable && map_cost == expected,
                "cost " + std::to_string(map_cost) + " expected " +
                    std::to_string(expected));

  // The other path (engine when traced, composition when not) must learn
  // the same weights.
  {
    SpanLog off(false);
    Result<LearnResult> other =
        args.trace ? TuffyEngine(program, evidence, eopts).Learn(lopts)
                   : ComposeLearn(program, evidence, eopts, lopts, &off);
    report->Check("composition_equals_learn",
                  other.ok() && other.value().weights == first.weights);
  }

  if (!args.trace) {
    report->Metric("setup_s", Median(parse_s), "s");
    report->Metric("infer_s", Median(map_s), "s");
    report->Metric("map_cost", map_cost, "cost");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("op_p50_ms", Quantile(call_epoch_ms, 0.5), "ms");
    report->Metric("op_p90_ms", Quantile(call_epoch_ms, 0.9), "ms");
    report->Metric("ops_per_s", epochs / learning, "1/s");
    report->Metric("read_p50_ms", Median(read_ms), "ms");
    report->Metric("read_p90_ms", Median(read_p90_ms), "ms");
    return 0;
  }

  const double parse_median = Median(parse_s);
  const double weights_s = Median(log.Seconds("learn.weights"));
  // Clause-truth evaluations feeding the count statistics: one sweep per
  // MC-SAT round (samples + burn-in) per epoch.
  const double sweeps = static_cast<double>(first.epochs) *
                        (lopts.mcsat_samples + lopts.mcsat_burn_in);
  report->Metric("mln.parse.s", parse_median, "s");
  report->Metric("mln.parse.mb_per_s",
                 rendered.text.size() / 1e6 / parse_median, "MB/s");
  report->Metric("learn.ground.s", Median(log.Seconds("learn.ground")), "s");
  report->Metric("learn.epoch.ms", Median(epoch_ms), "ms");
  report->Metric("learn.counts_per_s",
                 sweeps * first.num_ground_clauses / weights_s, "1/s");
  report->Metric("learn.grad_max", first.history.back().max_abs_gradient,
                 "abs");
  ReportSpans(log, args, static_cast<double>(reps), report);
  return 0;
}

}  // namespace perfbench

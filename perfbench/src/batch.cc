// Batch MAP workloads: evidence text -> ParseEvidence -> TuffyEngine::Run.
//
//   batch_ground  LP-XL (GroundingVecScaleLp): grounding dominates.
//   batch_search  IE (BenchIe, 900 independent components): component
//                 WalkSAT dominates.
//
// The traced pass re-composes Run from the layers' public functions
// (BottomUpGrounder::Ground, DetectComponents + FirstFitDecreasing,
// RunComponentWalkSat, Problem::EvalCost) with the engine's seed
// derivation, and checks that the composition reproduces Run bit for bit.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common.h"
#include "ground/bottom_up_grounder.h"
#include "infer/component_walksat.h"
#include "mln/parser.h"
#include "mrf/bin_packing.h"
#include "mrf/components.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr size_t kMinReps = 3;
constexpr int kThreads = 2;
/// batch_ground keeps search well under a fifth of a Run.
constexpr uint64_t kGroundWorkloadFlips = 100000;
constexpr uint64_t kSearchWorkloadFlips = 8000000;
constexpr uint64_t kSmokeFlips = 400000;

/// Everything the checks compare between two MAP runs.
struct MapOutcome {
  std::vector<uint8_t> truth;
  double total_cost = 0.0;
  size_t clauses = 0;
};

MapOutcome OutcomeOf(const EngineResult& r) {
  return MapOutcome{r.truth, r.total_cost, r.grounding.clauses.num_clauses()};
}

bool Same(const MapOutcome& a, const MapOutcome& b) {
  return a.truth == b.truth && a.total_cost == b.total_cost &&
         a.clauses == b.clauses;
}

std::string Describe(const MapOutcome& got, double expected_cost) {
  return "cost " + std::to_string(got.total_cost) + " expected " +
         std::to_string(expected_cost) + ", " + std::to_string(got.clauses) +
         " clauses";
}

struct Composed {
  MapOutcome outcome;
  uint64_t candidates = 0;
  uint64_t flips = 0;
  size_t components = 0;
  size_t exact_components = 0;
};

/// TuffyEngine::Run's kComponentAware path (no memory budget, batch
/// loading from memory) composed from the layers' public functions, each
/// call wrapped in a span.
Result<Composed> Compose(const MlnProgram& program,
                         const EvidenceDb& evidence,
                         const EngineOptions& opts, SpanLog* log) {
  Composed out;
  Timed root(log, "batch.compose", "exec");
  GroundingResult g;
  {
    Timed span(log, "ground", "ground", root.index());
    GroundingOptions gopts = opts.grounding;
    gopts.num_threads = opts.num_threads;
    BottomUpGrounder grounder(program, evidence, gopts, opts.optimizer);
    TUFFY_ASSIGN_OR_RETURN(g, grounder.Ground());
  }
  out.candidates = g.stats.candidates;
  const std::vector<GroundClause>& clauses = g.clauses.clauses();
  const size_t num_atoms = g.atoms.num_atoms();
  out.outcome.clauses = clauses.size();
  out.outcome.truth.assign(num_atoms, 0);

  if (num_atoms > 0) {
    ComponentSet comps;
    std::vector<std::vector<size_t>> batches;
    {
      Timed span(log, "mrf.components", "mrf", root.index());
      comps = DetectComponents(num_atoms, clauses);
      std::vector<uint64_t> sizes(comps.num_components());
      uint64_t total = 0;
      for (size_t i = 0; i < sizes.size(); ++i) {
        sizes[i] = ComponentSizeMetric(comps, i, clauses);
        total += sizes[i];
      }
      BinPacking packing =
          FirstFitDecreasing(sizes, std::max<uint64_t>(total, 1));
      batches.resize(packing.num_bins);
      for (size_t i = 0; i < sizes.size(); ++i) {
        batches[packing.bin_of_item[i]].push_back(i);
      }
    }
    out.components = comps.num_components();
    uint64_t batch_index = 0;
    for (const std::vector<size_t>& batch : batches) {
      if (batch.empty()) continue;
      std::vector<GroundClause> batch_clauses;
      ComponentSet batch_comps;
      uint64_t batch_atoms = 0;
      {
        Timed span(log, "exec.load", "exec", root.index());
        batch_comps.clauses.resize(batch.size());
        uint32_t next = 0;
        for (size_t k = 0; k < batch.size(); ++k) {
          const size_t c = batch[k];
          batch_comps.atoms.push_back(comps.atoms[c]);
          batch_atoms += comps.atoms[c].size();
          for (uint32_t ci : comps.clauses[c]) {
            batch_clauses.push_back(clauses[ci]);
            batch_comps.clauses[k].push_back(next++);
          }
        }
      }
      ComponentSearchOptions copts;
      copts.total_flips =
          std::max<uint64_t>(1, opts.total_flips * batch_atoms / num_atoms);
      copts.rounds = opts.rounds;
      copts.num_threads = opts.num_threads;
      copts.p_random = opts.p_random;
      copts.hard_weight = opts.hard_weight;
      copts.timeout_seconds = opts.timeout_seconds;
      copts.init_random = opts.init_random;
      copts.use_exact = opts.exact_fast_path;
      Timed span(log, "infer.search", "infer", root.index());
      ComponentSearchResult cr = RunComponentWalkSat(
          num_atoms, batch_clauses, batch_comps, copts,
          DeriveSeed(opts.seed, 0x6261746368ull + batch_index));
      for (size_t c : batch) {
        for (AtomId a : comps.atoms[c]) out.outcome.truth[a] = cr.truth[a];
      }
      out.flips += cr.flips;
      out.exact_components += cr.exact_components;
      ++batch_index;
    }
  }
  Timed span(log, "exec.cost", "exec", root.index());
  double search_cost = 0.0;
  if (num_atoms > 0) {
    search_cost = MakeWholeProblem(num_atoms, clauses)
                      .EvalCost(out.outcome.truth, opts.hard_weight);
  }
  out.outcome.total_cost = search_cost + g.fixed_cost;
  return out;
}

}  // namespace

int RunBatch(const Args& args, Report* report) {
  const bool ground_heavy = args.workload == "batch_ground";
  const char* query = ground_heavy ? "advisedBy" : "infield";
  Dataset ds = ground_heavy ? (args.smoke ? bench::GroundingScaleLp()
                                          : bench::GroundingVecScaleLp())
                            : bench::BenchIe();
  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.num_threads = kThreads;
  opts.seed = DeriveSeed(args.seed, 1);
  opts.total_flips = args.smoke          ? kSmokeFlips
                     : ground_heavy ? kGroundWorkloadFlips
                                    : kSearchWorkloadFlips;
  SpanLog log(args.trace);

  // ---- set-up: parse the rendered evidence text, twice before the
  // window and then throughout it (see SetupDue). Parsing goes into a
  // copy of the generated program so constant ids match the generated
  // evidence run for run.
  const RenderedEvidence rendered =
      RenderEvidence(ds.program, ds.evidence, DeriveSeed(args.seed, 2));
  const std::string& text = rendered.text;
  std::vector<double> parse_s;
  MlnProgram program;
  EvidenceDb evidence;
  auto parse = [&]() {
    program = ds.program;
    evidence = EvidenceDb();
    RotatedCpu cpu;
    Timed span(&log, "mln.parse", "mln");
    const double t0 = NowSeconds();
    Status st = ParseEvidence(text, &program, &evidence);
    parse_s.push_back(NowSeconds() - t0);
    return st.ok() || report->Check("parse_evidence", false, st.ToString());
  };
  if (!parse() || !parse()) return 1;
  report->Check("parsed_evidence_equals_generated",
                SameEvidence(evidence, ds.evidence));
  std::printf("%s: %s, %zu evidence rows (%.1f MB of text), %llu flips, "
              "%d threads\n",
              args.workload.c_str(), ds.name.c_str(), evidence.num_evidence(),
              text.size() / 1e6,
              static_cast<unsigned long long>(opts.total_flips), kThreads);

  // ---- measured window: repeated Runs, each followed by reads of the
  // MAP answer (traced: plus the composition with and without spans).
  std::vector<double> run_s, traced_s, untraced_s, read_ms, read_p90_ms;
  MapOutcome first;
  EngineResult last;
  bool repeatable = true;
  uint64_t ops = 0, failed = 0;
  size_t answers = 0;
  double reading = 0.0;  // wall time of the read bursts, not in ops_per_s
  SpanLog off(false);
  const double start = NowSeconds();
  while (run_s.size() < kMinReps || NowSeconds() - start < args.seconds) {
    log.SetRun(static_cast<uint32_t>(run_s.size()));
    TuffyEngine engine(program, evidence, opts);
    double t0 = NowSeconds();
    Result<EngineResult> r = engine.Run();
    run_s.push_back(NowSeconds() - t0);
    ++ops;
    if (!r.ok()) {
      ++failed;
      report->Check("engine_run", false, r.status().ToString());
      break;
    }
    last = r.TakeValue();
    if (run_s.size() == 1) first = OutcomeOf(last);
    repeatable = repeatable && Same(OutcomeOf(last), first);
    const double read_start = NowSeconds();
    Result<ReadSample> read =
        TimeAnswerReads(program, last.grounding.atoms, last.truth, query,
                        &answers, &ops);
    reading += NowSeconds() - read_start;
    if (!read.ok()) {
      ++failed;
      report->Check("extract_answers", false, read.status().ToString());
      break;
    }
    read_ms.push_back(read.value().fastest_ms);
    read_p90_ms.push_back(read.value().p90_ms);
    if (SetupDue(parse_s, NowSeconds() - start) && !parse()) return 1;
    if (args.trace) {
      for (SpanLog* pass : {&log, &off}) {
        t0 = NowSeconds();
        Result<Composed> c = Compose(program, evidence, opts, pass);
        (pass == &log ? traced_s : untraced_s).push_back(NowSeconds() - t0);
        repeatable = repeatable && c.ok() && Same(c.value().outcome, first);
      }
    }
  }
  const double window = NowSeconds() - start;
  report->CountOps(ops, failed);
  if (failed > 0) return 1;
  std::printf("%s: %zu runs, %zu read samples, %zu parses in %.1f s\n",
              args.workload.c_str(), run_s.size(), read_ms.size(),
              parse_s.size(), window);
  report->Check("parse_evidence", true,
                std::to_string(parse_s.size()) + " parses");
  report->Check("answers_nonempty", answers > 0,
                std::to_string(answers) + " true " + query + " atoms");
  const double expected_cost =
      first.total_cost + (args.corrupt_expected ? 1.0 : 0.0);
  report->Check("map_cost_repeatable",
                repeatable && first.total_cost == expected_cost,
                Describe(OutcomeOf(last), expected_cost));

  // ---- checks outside the window. The generated rows are added in the
  // text's order: grounding numbers atoms in evidence hash-map order, and
  // that order depends on insertion history, so only the same history
  // makes the runs comparable bit for bit. The generator's own database
  // (another history) must still give the same ground clause set size.
  {
    EvidenceDb generated;
    for (const auto& [atom, truth] : rendered.rows) generated.Add(atom, truth);
    TuffyEngine engine(ds.program, generated, opts);
    Result<EngineResult> same_order = engine.Run();
    report->Check("parsed_equals_generated_run",
                  same_order.ok() &&
                      Same(OutcomeOf(same_order.value()), first) &&
                      same_order.value().total_cost == expected_cost,
                  same_order.ok()
                      ? Describe(OutcomeOf(same_order.value()), expected_cost)
                      : same_order.status().ToString());
    TuffyEngine native_engine(ds.program, ds.evidence, opts);
    Result<EngineResult> native = native_engine.Run();
    report->Check("generator_order_clause_count",
                  native.ok() &&
                      native.value().grounding.clauses.num_clauses() ==
                          first.clauses,
                  native.ok() ? Describe(OutcomeOf(native.value()),
                                         expected_cost)
                              : native.status().ToString());
  }
  Result<Composed> composed = Compose(program, evidence, opts, &off);
  report->Check("composition_equals_run",
                composed.ok() && Same(composed.value().outcome, first) &&
                    composed.value().outcome.total_cost == expected_cost,
                composed.ok()
                    ? Describe(composed.value().outcome, expected_cost)
                    : composed.status().ToString());
  if (!composed.ok()) return 1;

  if (!args.trace) {
    report->Metric("setup_s", Median(parse_s), "s");
    report->Metric("infer_s", Median(run_s), "s");
    report->Metric("map_cost", first.total_cost, "cost");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("op_p50_ms", Quantile(run_s, 0.5) * 1e3, "ms");
    report->Metric("op_p90_ms", Quantile(run_s, 0.9) * 1e3, "ms");
    report->Metric("ops_per_s", run_s.size() / (window - reading), "1/s");
    report->Metric("read_p50_ms", Median(read_ms), "ms");
    report->Metric("read_p90_ms", Median(read_p90_ms), "ms");
    return 0;
  }

  const Composed& c = composed.value();
  const double parse_median = Median(parse_s);
  const double ground = Median(log.Seconds("ground"));
  const double mrf = Median(log.Seconds("mrf.components"));
  const double search = Median(log.Seconds("infer.search"));
  report->Metric("mln.parse.s", parse_median, "s");
  report->Metric("mln.parse.mb_per_s", text.size() / 1e6 / parse_median,
                 "MB/s");
  report->Metric("ground.s", ground, "s");
  report->Metric("ground.candidates_per_s", c.candidates / ground, "1/s");
  report->Metric("ground.clause_yield",
                 c.candidates > 0
                     ? static_cast<double>(c.outcome.clauses) / c.candidates
                     : 0.0,
                 "ratio");
  report->Metric("ground.clauses", c.outcome.clauses, "count");
  report->Metric("mrf.components.s", mrf, "s");
  report->Metric("mrf.components", c.components, "count");
  report->Metric("infer.search.s", search, "s");
  report->Metric("infer.flips", c.flips, "count");
  report->Metric("infer.flips_per_s", search > 0 ? c.flips / search : 0.0,
                 "1/s");
  report->Metric("infer.exact.components", c.exact_components, "count");
  report->Metric("exec.self.s", Median(run_s) - ground - mrf - search, "s");
  report->Metric("trace.overhead.infer_s",
                 Median(traced_s) - Median(untraced_s), "s");
  ReportSpans(log, args, static_cast<double>(run_s.size()), report);
  return 0;
}

}  // namespace perfbench

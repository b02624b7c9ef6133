#ifndef TUFFY_PERFBENCH_COMMON_H_
#define TUFFY_PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark binary: command-line arguments, the
// result report (metrics + correctness checks + the final JSON line),
// the benchmark's own span log, and small statistics helpers.
//
// Spans are recorded only around calls the benchmark itself makes into
// each layer's public functions; nothing inside src/ is instrumented for
// the benchmark. Spans the program already produces (the TraceBuilder
// spans of InferenceSession::ApplyDelta) are imported as children.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ground/grounding.h"
#include "mln/model.h"
#include "obs/trace.h"
#include "util/result.h"

namespace perfbench {

using namespace tuffy;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes and budgets, for the benchmark's own test.
  bool smoke = false;
  /// Test hook: perturbs every expected cost the checks compare against,
  /// so a run must fail. Proves the checks can fail.
  bool corrupt_expected = false;
  /// Scratch directory for WAL/snapshot files and the Chrome trace.
  std::string work_dir = ".";
};

/// Metrics, checks and operation counts of one run; prints the final
/// JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records one correctness check and prints "CHECK <name> ok|FAIL ...".
  bool Check(const std::string& name, bool ok, const std::string& detail = "");
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on stdout.
  void PrintResult() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// One span of the benchmark's trace.
struct BenchSpan {
  std::string name;
  std::string layer;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;
  uint32_t run_id = 0;
  uint32_t tid = 0;
  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// Thread-safe span log. Disabled logs record nothing (every call is a
/// branch), which is what the untraced passes use.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// The repetition the next spans belong to.
  void SetRun(uint32_t run_id) { run_id_ = run_id; }

  int Begin(const std::string& name, const std::string& layer,
            int parent = -1, uint32_t tid = 0);
  void End(int index);
  int Add(const std::string& name, const std::string& layer,
          uint64_t start_ns, uint64_t end_ns, int parent, uint32_t tid = 0);
  /// Imports the program's own span tree (ApplyDelta's TraceBuilder
  /// spans) under `parent`, mapping span names to layers.
  void Import(const std::vector<Span>& spans, int parent, uint32_t tid);

  /// Durations (seconds) of every span called `name`.
  std::vector<double> Seconds(const std::string& name) const;
  /// Sum per layer of span time minus child-span time.
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Writes the spans as Chrome trace-event JSON ("X" events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  uint32_t run_id_ = 0;
  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;
};

/// RAII span around one layer call.
class Timed {
 public:
  Timed(SpanLog* log, const std::string& name, const std::string& layer,
        int parent = -1, uint32_t tid = 0)
      : log_(log), index_(log->Begin(name, layer, parent, tid)) {}
  ~Timed() { log_->End(index_); }
  int index() const { return index_; }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Pins the calling thread to the next CPU of the process's allowed set,
/// round robin, until destroyed, then restores the set. Single-threaded
/// samples (a parse, a burst of reads) run under one, so every run samples
/// every CPU alike: on a shared host one CPU can run a thread markedly
/// slower than the others, and where the scheduler happens to leave the
/// main thread would otherwise set a run's whole median. Never hold one
/// across a call that starts threads; they would inherit the single CPU.
class RotatedCpu {
 public:
  RotatedCpu();
  ~RotatedCpu();
  RotatedCpu(const RotatedCpu&) = delete;
  RotatedCpu& operator=(const RotatedCpu&) = delete;

 private:
  bool pinned_ = false;
};

double NowSeconds();
/// True when another set-up sample should be taken inside the window:
/// while set-up has used less than a fifth of the `elapsed` window time.
/// Spreading the samples over the window keeps the set-up median from
/// hanging on whichever slow or fast phase the machine is in at start.
bool SetupDue(const std::vector<double>& setup_seconds, double elapsed);
double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double PeakRssMb();

/// Length of one read sample of a batch or learning workload, and the
/// reads per timed slice of it (see TimeAnswerReads).
constexpr double kReadBurstSeconds = 0.2;
constexpr int kSliceReads = 20;

/// Per-read times of one read burst, in milliseconds: of its fastest
/// slice, and the p90 over its slices.
struct ReadSample {
  double fastest_ms = 0.0;
  double p90_ms = 0.0;
};

/// One read sample of a batch or learning workload: extracts the true
/// atoms of `predicate` (ExtractTrueAtoms, the MAP answer a user reads)
/// for kReadBurstSeconds, split evenly over the allowed CPUs, each pass
/// pinned to one (RotatedCpu) and starting with an untimed read that
/// takes the page faults and cache misses a fresh result or CPU costs.
/// The reads are timed in slices of kSliceReads. Counts every read
/// attempted, untimed ones included, in `*reads`. Workloads report the
/// medians over their bursts of `fastest_ms` as read_p50_ms and of
/// `p90_ms` as read_p90_ms.
///
/// Why per-burst statistics: an extraction can take tens of
/// microseconds, and on a shared host the same loop runs at two or more
/// speeds, up to ~1.6x apart, in phases from tens of milliseconds to
/// minutes (host-side cache contention: an ALU loop timed alongside does
/// not move). The median of burst means followed how much of a run fell
/// into slow phases and spread 31% of itself over ten 20-second runs of
/// learn_rc. Over six runs each of learn_rc and batch_ground, the median
/// of the fastest slices (the read with the least interference;
/// contention only adds time, so a read the code makes slower still
/// shows) spread 4% and 8%, and the median of the bursts' p90s 6% and 9%,
/// where the p90 of the bursts' fastest slices spread 10% and 30%.
Result<ReadSample> TimeAnswerReads(const MlnProgram& program,
                                   const AtomStore& atoms,
                                   const std::vector<uint8_t>& truth,
                                   const std::string& predicate,
                                   size_t* answers, uint64_t* reads);

/// Evidence rendered as evidence-file text (every constant quoted), one
/// line per row, rows in a seed-dependent order.
struct RenderedEvidence {
  std::string text;
  /// The rows in text order.
  std::vector<std::pair<GroundAtom, bool>> rows;
};
RenderedEvidence RenderEvidence(const MlnProgram& program,
                                const EvidenceDb& evidence,
                                uint64_t shuffle_seed);
bool SameEvidence(const EvidenceDb& a, const EvidenceDb& b);

/// The per-layer metric catalog (name, unit). A traced run prints every
/// one of them; a layer the workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Records the per-layer self time of `log`, divided by `units` (the
/// workload's repetitions or deltas), as self.<layer>.s metrics, and
/// writes the Chrome trace into the work directory.
void ReportSpans(const SpanLog& log, const Args& args, double units,
                 Report* report);

int RunBatch(const Args& args, Report* report);
int RunServe(const Args& args, Report* report);
int RunLearn(const Args& args, Report* report);

}  // namespace perfbench

#endif  // TUFFY_PERFBENCH_COMMON_H_

#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <numeric>

#include "bench/bench_json.h"
#include "exec/tuffy_engine.h"
#include "util/rng.h"

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

bool Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  std::printf("CHECK %s %s%s%s\n", name.c_str(), ok ? "ok" : "FAIL",
              detail.empty() ? "" : " ", detail.c_str());
  std::fflush(stdout);
  if (!ok) correct_ = false;
  return ok;
}

void Report::PrintResult() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                attempted_, failed_);
  out += buf;
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, ",
                  first ? "" : ", ", name.c_str(), v.value);
    out += buf;
    out += "\"unit\": \"" + v.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int SpanLog::Begin(const std::string& name, const std::string& layer,
                   int parent, uint32_t tid) {
  if (!enabled_) return -1;
  const uint64_t now = TraceNowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(BenchSpan{name, layer, now, now, parent, run_id_, tid});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int index) {
  if (index < 0) return;
  const uint64_t now = TraceNowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = now;
}

int SpanLog::Add(const std::string& name, const std::string& layer,
                 uint64_t start_ns, uint64_t end_ns, int parent,
                 uint32_t tid) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      BenchSpan{name, layer, start_ns, end_ns, parent, run_id_, tid});
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

/// Layer owning each span name ApplyDelta's TraceBuilder emits.
std::string LayerOfDeltaSpan(const std::string& name) {
  if (name.rfind("wal.", 0) == 0 || name == "snapshot.write") {
    return "durability";
  }
  if (name == "ground.delta") return "ground";
  if (name.rfind("search.component", 0) == 0 || name == "mcsat.refresh") {
    return "infer";
  }
  if (name.rfind("net.", 0) == 0) return "net";
  return "serve";  // apply_delta, search (the dirty-component loop)
}

}  // namespace

void SpanLog::Import(const std::vector<Span>& spans, int parent,
                     uint32_t tid) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  const int base = static_cast<int>(spans_.size());
  for (const Span& s : spans) {
    spans_.push_back(BenchSpan{s.name, LayerOfDeltaSpan(s.name), s.start_ns,
                               s.end_ns, s.parent < 0 ? parent
                                                      : base + s.parent,
                               run_id_, tid});
  }
}

std::vector<double> SpanLog::Seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const BenchSpan& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const BenchSpan& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.seconds();
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    // Children that ran in parallel (pool workers) can sum past their
    // parent; a layer's self time never goes negative.
    out[spans_[i].layer] += std::max(0.0, spans_[i].seconds() - child[i]);
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const BenchSpan& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const BenchSpan& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %u, \"tid\": %u, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"run_id\": %u}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.layer.c_str(),
                 (s.start_ns - origin) * 1e-3, (s.end_ns - s.start_ns) * 1e-3,
                 s.run_id, s.tid, i, s.parent, s.run_id);
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

namespace {

/// The process's CPU set as found at first use.
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  return allowed;
}

}  // namespace

RotatedCpu::RotatedCpu() {
  const cpu_set_t& allowed = AllowedCpus();
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  static int next = 0;
  int skip = next++ % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

RotatedCpu::~RotatedCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(cpu_set_t), &AllowedCpus());
}

double NowSeconds() { return TraceNowNs() * 1e-9; }

bool SetupDue(const std::vector<double>& setup_seconds, double elapsed) {
  double total = 0.0;
  for (double s : setup_seconds) total += s;
  return total < 0.2 * elapsed;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / values.size();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Result<ReadSample> TimeAnswerReads(const MlnProgram& program,
                                   const AtomStore& atoms,
                                   const std::vector<uint8_t>& truth,
                                   const std::string& predicate,
                                   size_t* answers, uint64_t* reads) {
  auto read = [&]() -> Status {
    ++*reads;
    TUFFY_ASSIGN_OR_RETURN(std::vector<GroundAtom> answer,
                           ExtractTrueAtoms(program, atoms, truth, predicate));
    *answers = answer.size();
    return Status::OK();
  };
  // One pass per CPU in turn; a single RotatedCpu would put the samples
  // of a loop that also takes set-up samples on the same subset of CPUs
  // run after run.
  const int passes = std::max(1, CPU_COUNT(&AllowedCpus()));
  std::vector<double> slice_ms;
  for (int pass = 0; pass < passes; ++pass) {
    RotatedCpu cpu;
    TUFFY_RETURN_IF_ERROR(read());  // untimed
    const double start = NowSeconds();
    double now = start;
    do {
      const double slice_start = now;
      for (int i = 0; i < kSliceReads; ++i) TUFFY_RETURN_IF_ERROR(read());
      now = NowSeconds();
      slice_ms.push_back((now - slice_start) * 1e3 / kSliceReads);
    } while (now - start < kReadBurstSeconds / passes);
  }
  return ReadSample{Quantile(slice_ms, 0.0), Quantile(slice_ms, 0.9)};
}

RenderedEvidence RenderEvidence(const MlnProgram& program,
                                const EvidenceDb& evidence,
                                uint64_t shuffle_seed) {
  std::vector<std::pair<std::string, std::pair<GroundAtom, bool>>> lines;
  lines.reserve(evidence.num_evidence());
  for (const auto& [atom, truth] : evidence.entries()) {
    std::string line = truth ? "" : "!";
    line += program.predicate(atom.pred).name;
    line += '(';
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (i > 0) line += ", ";
      line += '"';
      line += program.symbols().SymbolName(atom.args[i]);
      line += '"';
    }
    line += ")\n";
    lines.emplace_back(std::move(line), std::make_pair(atom, truth));
  }
  // Hash-map order is an implementation detail; sort first so the text
  // depends on the seed alone.
  std::sort(lines.begin(), lines.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Rng rng(shuffle_seed);
  for (size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.Uniform(i)]);
  }
  RenderedEvidence out;
  out.rows.reserve(lines.size());
  for (auto& [line, row] : lines) {
    out.text += line;
    out.rows.push_back(std::move(row));
  }
  return out;
}

bool SameEvidence(const EvidenceDb& a, const EvidenceDb& b) {
  if (a.num_evidence() != b.num_evidence()) return false;
  for (const auto& [atom, truth] : a.entries()) {
    auto it = b.entries().find(atom);
    if (it == b.entries().end() || it->second != truth) return false;
  }
  return true;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"mln.parse.s", "s"},
      {"mln.parse.mb_per_s", "MB/s"},
      {"ground.s", "s"},
      {"ground.candidates_per_s", "1/s"},
      {"ground.clause_yield", "ratio"},
      {"ground.clauses", "count"},
      {"ground.delta.ms", "ms"},
      {"ground.delta.bindings", "count"},
      {"mrf.components.s", "s"},
      {"mrf.components", "count"},
      {"infer.search.s", "s"},
      {"infer.flips_per_s", "1/s"},
      {"infer.flips", "count"},
      {"infer.exact.components", "count"},
      {"exec.self.s", "s"},
      {"serve.open.s", "s"},
      {"serve.apply.ms", "ms"},
      {"serve.search.ms", "ms"},
      {"serve.mcsat.ms", "ms"},
      {"serve.flips_per_delta", "count"},
      {"serve.dirty_frac", "ratio"},
      {"wal.append.ms", "ms"},
      {"wal.fsync.ms", "ms"},
      {"wal.bytes_per_delta", "B"},
      {"snapshot.write.ms", "ms"},
      {"net.queue_wait.ms", "ms"},
      {"net.server.ms", "ms"},
      {"net.wire_overhead.ms", "ms"},
      {"net.bytes_per_op", "B"},
      {"net.retries", "count"},
      {"net.read.flips", "count"},
      {"learn.ground.s", "s"},
      {"learn.epoch.ms", "ms"},
      {"learn.counts_per_s", "1/s"},
      {"learn.grad_max", "abs"},
      {"trace.overhead.infer_s", "s"},
      {"trace.overhead.delta_p50_ms", "ms"},
      {"self.mln.s", "s"},
      {"self.ground.s", "s"},
      {"self.mrf.s", "s"},
      {"self.infer.s", "s"},
      {"self.exec.s", "s"},
      {"self.serve.s", "s"},
      {"self.durability.s", "s"},
      {"self.net.s", "s"},
      {"self.learn.s", "s"},
  };
  return kMetrics;
}

void ReportSpans(const SpanLog& log, const Args& args, double units,
                 Report* report) {
  for (const auto& [layer, seconds] : log.SelfSecondsByLayer()) {
    const std::string name = "self." + layer + ".s";
    // Spans of the benchmark's own client loop belong to no layer.
    for (const auto& known : PerLayerMetrics()) {
      if (known.first == name) report->Metric(name, seconds / units, "s");
    }
  }
  const std::string path = args.work_dir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
  report->Check("chrome_trace_written", log.WriteChromeTrace(path), path);
  // The raw registry account of the whole run, one BENCH_JSON line.
  bench::BenchJson row("perfbench");
  row.Str("workload", args.workload).Int("seed", args.seed);
  row.Metrics({}).Emit();
}

}  // namespace perfbench

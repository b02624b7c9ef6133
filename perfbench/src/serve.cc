// serve_rc: the RC-60 serving dataset behind net::Server on loopback.
//
// Two clients, each on its own durable session (fsync on every delta, a
// snapshot every 8 deltas, marginals tracked), run a closed loop: one
// relabel delta (retract + assert one `cat` label) followed by 4
// QueryMarginals reads. The traced run replays each client's delta stream
// in process through InferenceSession::ApplyDelta with a TraceBuilder;
// the difference between the two passes is the net layer's share.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/inference_session.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr uint32_t kSnapshotEvery = 8;
constexpr int kReadsPerDelta = 4;
/// Set-up samples taken before the window, and again after it.
constexpr int kSetupReps = 2;
/// map_cost is each session's cost after this many deltas, so it does
/// not depend on how many deltas fit in the window.
constexpr size_t kCostCheckpoint = 16;
/// Deltas per client stream (the loop never gets near the end).
constexpr size_t kStreamLength = 20000;
/// Read-only burst checking that reads spend no search flips.
constexpr int kProbeReads = 20;
/// Deltas per client the traced run replays in process.
constexpr size_t kTracedTwinDeltas = 128;

/// The RC serving dataset of bench/bench_serving.cc (RC-60).
Dataset ServingRc(bool smoke) {
  RcParams p;
  p.num_clusters = smoke ? 8 : 60;
  p.papers_per_cluster = 10;
  p.num_categories = 6;  // both relabel targets exist
  p.labeled_fraction = 0.5;
  Result<Dataset> r = MakeRcDataset(p);
  if (!r.ok()) {
    std::fprintf(stderr, "RC generation failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

SessionOptions ServingSessionOptions(const Args& args) {
  SessionOptions opts;
  opts.total_flips = args.smoke ? 200000 : 8000000;
  opts.seed = DeriveSeed(args.seed, 1);
  opts.track_marginals = true;
  return opts;
}

/// One client's relabel stream: each delta retracts a current `cat`
/// label and asserts the paper under the other of two categories.
std::vector<EvidenceDelta> MakeStream(const Dataset& ds, uint64_t seed,
                                      size_t length) {
  const PredicateId cat = ds.program.FindPredicate("cat").value();
  std::vector<GroundAtom> labels;
  for (const auto& [atom, truth] : ds.evidence.entries()) {
    if (atom.pred == cat && truth) labels.push_back(atom);
  }
  std::sort(labels.begin(), labels.end(),
            [](const GroundAtom& a, const GroundAtom& b) {
              return a.args < b.args;
            });
  const ConstantId cat_a = ds.program.symbols().Find("Networking");
  const ConstantId cat_b = ds.program.symbols().Find("Theory");
  Rng rng(seed);
  std::vector<EvidenceDelta> stream;
  stream.reserve(length);
  for (size_t d = 0; d < length; ++d) {
    const size_t i = rng.Uniform(labels.size());
    GroundAtom relabeled = labels[i];
    relabeled.args[1] = relabeled.args[1] == cat_a ? cat_b : cat_a;
    EvidenceDelta delta;
    delta.Retract(labels[i]);
    delta.Assert(relabeled, true);
    stream.push_back(std::move(delta));
    labels[i] = relabeled;
  }
  return stream;
}

EvidenceDb EvidenceAfter(const EvidenceDb& initial,
                         const std::vector<EvidenceDelta>& stream,
                         size_t count) {
  EvidenceDb db = initial;
  for (size_t d = 0; d < count; ++d) {
    for (const GroundAtom& atom : stream[d].retractions) db.Remove(atom);
    for (const auto& [atom, truth] : stream[d].assertions) db.Add(atom, truth);
  }
  return db;
}

std::string SessionName(int c) { return "s" + std::to_string(c); }

/// Sample values of the server's registry, read over the wire
/// (Client::Metrics, Prometheus text: "name value" lines).
std::map<std::string, double> WireMetrics(Client* client) {
  std::map<std::string, double> out;
  Result<NetResponse> r = client->Metrics();
  if (!r.ok()) return out;
  std::istringstream in(r.value().message);
  std::string name;
  double value;
  while (in >> name) {
    if (name[0] == '#' || name.find('{') != std::string::npos ||
        !(in >> value)) {
      in.clear();
      std::getline(in, name);
      continue;
    }
    out[name] = value;
  }
  return out;
}

/// A started server with one connected client per session.
struct Fleet {
  std::unique_ptr<Server> server;
  std::vector<Client> clients;
};

Status StartFleet(const Dataset& ds, const SessionOptions& sopts,
                  const std::string& root, Fleet* fleet) {
  ServerOptions opts;
  opts.num_workers = kWorkers;
  opts.session = sopts;
  opts.durability_root = root;
  opts.snapshot_every = kSnapshotEvery;
  opts.wal_fsync = true;
  fleet->server = std::make_unique<Server>(ds.program, ds.evidence, opts);
  TUFFY_RETURN_IF_ERROR(fleet->server->Start());
  fleet->clients = std::vector<Client>(kClients);
  std::vector<Status> opened(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = fleet->clients[c];
      opened[c] = client.Connect("127.0.0.1", fleet->server->port());
      if (!opened[c].ok()) return;
      Result<NetResponse> r = client.OpenSession(SessionName(c));
      if (!r.ok()) {
        opened[c] = r.status();
      } else if (r.value().type != MsgType::kOpenReply) {
        opened[c] = Status::Internal("open refused: " + r.value().message);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : opened) TUFFY_RETURN_IF_ERROR(st);
  return Status::OK();
}

void StopFleet(Fleet* fleet) {
  for (Client& c : fleet->clients) c.Disconnect();
  if (fleet->server != nullptr) fleet->server->Stop();
  fleet->server.reset();
}

/// What one client observed over the wire.
struct Lane {
  std::vector<double> delta_ms;
  std::vector<double> read_ms;
  /// map_cost of every delta reply, in order.
  std::vector<double> costs;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void RunLane(Client* client, int c, const std::vector<EvidenceDelta>& stream,
             double deadline, SpanLog* log, Lane* lane) {
  const std::string session = SessionName(c);
  const uint32_t tid = static_cast<uint32_t>(c + 1);
  while ((NowSeconds() < deadline || lane->costs.size() < kCostCheckpoint) &&
         lane->costs.size() < stream.size()) {
    NetRequest req;
    req.type = MsgType::kApplyDelta;
    req.session = session;
    req.delta = stream[lane->costs.size()];
    ++lane->attempted;
    double t0 = NowSeconds();
    Result<NetResponse> r = Status::Internal("not sent");
    {
      Timed span(log, "wire.delta", "client", -1, tid);
      r = client->CallWithRetry(req);
    }
    if (!r.ok() || r.value().type != MsgType::kDeltaReply) {
      ++lane->failed;
      return;  // a lost delta breaks the session == fresh oracle
    }
    lane->delta_ms.push_back((NowSeconds() - t0) * 1e3);
    lane->costs.push_back(r.value().map_cost);
    for (int k = 0; k < kReadsPerDelta; ++k) {
      NetRequest read;
      read.type = MsgType::kQueryMarginals;
      read.session = session;
      read.predicate = "cat";
      ++lane->attempted;
      t0 = NowSeconds();
      {
        Timed span(log, "wire.read", "client", -1, tid);
        r = client->CallWithRetry(read);
      }
      if (!r.ok() || r.value().type != MsgType::kMarginalsReply ||
          r.value().marginals.empty()) {
        ++lane->failed;
        continue;
      }
      lane->read_ms.push_back((NowSeconds() - t0) * 1e3);
    }
  }
}

/// Per-delta figures of one in-process replay.
struct Twin {
  double open_s = 0.0;
  std::vector<double> apply_ms;
  std::vector<double> costs;
  std::vector<uint8_t> final_truth;
  uint64_t flips = 0;
  double dirty_frac_sum = 0.0;
  uint64_t bindings = 0;
  uint64_t wal_bytes = 0;
  bool ok = true;
};

/// Replays stream[0, count) into a fresh durable session in process, with
/// a TraceBuilder per delta when `log` is enabled.
Twin ReplayTwin(const Dataset& ds, SessionOptions sopts,
                const std::vector<EvidenceDelta>& stream, size_t count,
                const std::string& wal_dir, SpanLog* log, uint32_t tid) {
  Twin twin;
  sopts.wal_dir = wal_dir;
  sopts.snapshot_every = kSnapshotEvery;
  sopts.wal_fsync = true;
  InferenceSession session(ds.program, sopts);
  double t0 = NowSeconds();
  {
    Timed span(log, "serve.open", "serve", -1, tid);
    Status st = session.Open(ds.evidence);
    twin.ok = st.ok();
  }
  twin.open_s = NowSeconds() - t0;
  Counter* wal_bytes =
      MetricsRegistry::Global().GetCounter("wal.append.bytes");
  const uint64_t bytes_before = wal_bytes->Value();
  for (size_t d = 0; twin.ok && d < count; ++d) {
    TraceBuilder trace(wal_dir);
    t0 = NowSeconds();
    Result<DeltaApplyResult> r =
        session.ApplyDelta(stream[d], log->enabled() ? &trace : nullptr);
    twin.apply_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!r.ok()) {
      twin.ok = false;
      break;
    }
    if (log->enabled()) log->Import(session.RecentTraces().back().spans, -1, tid);
    const DeltaApplyResult& res = r.value();
    twin.costs.push_back(res.map_cost);
    twin.flips += res.flips;
    twin.bindings += res.edits.bindings_resolved;
    twin.dirty_frac_sum +=
        res.components_total > 0
            ? static_cast<double>(res.components_dirty) / res.components_total
            : 0.0;
  }
  twin.wal_bytes = wal_bytes->Value() - bytes_before;
  twin.final_truth = session.truth();
  return twin;
}

double MeanSpanMs(const SpanLog& log, const std::string& name) {
  return Mean(log.Seconds(name)) * 1e3;
}

}  // namespace

int RunServe(const Args& args, Report* report) {
  namespace fs = std::filesystem;
  const Dataset ds = ServingRc(args.smoke);
  const SessionOptions sopts = ServingSessionOptions(args);
  std::vector<std::vector<EvidenceDelta>> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(
        MakeStream(ds, DeriveSeed(args.seed, 100 + c), kStreamLength));
  }
  const fs::path wal_root = fs::path(args.work_dir) / "wal";
  fs::remove_all(wal_root);
  SpanLog log(args.trace);

  // ---- set-up: server start until every session is open, sampled
  // before and after the window. The last fleet started before the
  // window serves it.
  std::vector<double> setup_s;
  Fleet fleet;
  auto start_fleet = [&]() {
    StopFleet(&fleet);
    const std::string root =
        wal_root / ("setup" + std::to_string(setup_s.size()));
    const double t0 = NowSeconds();
    Status st = StartFleet(ds, sopts, root, &fleet);
    setup_s.push_back(NowSeconds() - t0);
    if (st.ok()) return true;
    report->Check("sessions_open", false, st.ToString());
    StopFleet(&fleet);
    return false;
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!start_fleet()) return 1;
  }

  // A from-scratch Run is what serving replaces; time it on the initial
  // evidence now and on each session's final evidence after the window.
  EngineOptions fresh_opts;
  fresh_opts.search_mode = SearchMode::kComponentAware;
  fresh_opts.grounding.lazy_closure = false;  // session grounding semantics
  fresh_opts.total_flips = sopts.total_flips;
  fresh_opts.seed = sopts.seed;
  fresh_opts.num_threads = kWorkers;
  std::vector<double> fresh_s;
  for (int rep = 0; rep < kClients; ++rep) {
    TuffyEngine engine(ds.program, ds.evidence, fresh_opts);
    const double t0 = NowSeconds();
    Result<EngineResult> fresh = engine.Run();
    fresh_s.push_back(NowSeconds() - t0);
    if (!fresh.ok()) {
      report->Check("fresh_run", false, fresh.status().ToString());
      return 1;
    }
  }

  // ---- measured window: the closed loop, one thread per client.
  const std::map<std::string, double> wire_before =
      WireMetrics(&fleet.clients[0]);
  const ServerMetrics server_before = fleet.server->metrics();
  std::vector<Lane> lanes(kClients);
  const double start = NowSeconds();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        RunLane(&fleet.clients[c], c, streams[c], start + args.seconds, &log,
                &lanes[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double window = NowSeconds() - start;
  const ServerMetrics server_after = fleet.server->metrics();
  const std::map<std::string, double> wire_after =
      WireMetrics(&fleet.clients[0]);

  // Reads only: no search may run.
  Counter* flips = MetricsRegistry::Global().GetCounter("search.flips");
  const uint64_t flips_before = flips->Value();
  uint64_t probe_failed = 0;
  for (int k = 0; k < kProbeReads; ++k) {
    for (int c = 0; c < kClients; ++c) {
      Result<NetResponse> r =
          fleet.clients[c].QueryMarginals(SessionName(c), "cat");
      if (!r.ok() || r.value().type != MsgType::kMarginalsReply) {
        ++probe_failed;
      }
    }
  }
  const uint64_t read_flips = flips->Value() - flips_before;
  report->Check("reads_spend_zero_flips", read_flips == 0 && probe_failed == 0,
                std::to_string(read_flips) + " flips over " +
                    std::to_string(kProbeReads * kClients) + " reads");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!start_fleet()) return 1;
  }
  StopFleet(&fleet);
  report->Check("sessions_open", true,
                std::to_string(setup_s.size()) + " fleet starts");

  uint64_t attempted = kProbeReads * kClients, failed = probe_failed;
  std::vector<double> delta_ms, read_ms;
  size_t deltas = 0;
  for (const Lane& lane : lanes) {
    attempted += lane.attempted;
    failed += lane.failed;
    delta_ms.insert(delta_ms.end(), lane.delta_ms.begin(),
                    lane.delta_ms.end());
    read_ms.insert(read_ms.end(), lane.read_ms.begin(), lane.read_ms.end());
    deltas += lane.costs.size();
  }
  auto wire_delta = [&](const std::string& name) {
    auto get = [&](const std::map<std::string, double>& m) {
      auto it = m.find(name);
      return it == m.end() ? 0.0 : it->second;
    };
    return get(wire_after) - get(wire_before);
  };
  const double retries = wire_delta("net.client.retry.count");
  report->CountOps(attempted, failed + static_cast<uint64_t>(retries));
  std::printf("serve_rc: %zu deltas, %zu reads in %.1f s over %d clients\n",
              deltas, read_ms.size(), window, kClients);
  if (failed > 0) {
    report->Check("wire_ops_succeeded", false,
                  std::to_string(failed) + " failed");
    return 1;
  }

  // ---- session == fresh Run over the accumulated evidence.
  double checkpoint_cost = 0.0;
  for (int c = 0; c < kClients; ++c) {
    const Lane& lane = lanes[c];
    const EvidenceDb accumulated =
        EvidenceAfter(ds.evidence, streams[c], lane.costs.size());
    TuffyEngine engine(ds.program, accumulated, fresh_opts);
    const double t0 = NowSeconds();
    Result<EngineResult> fresh = engine.Run();
    fresh_s.push_back(NowSeconds() - t0);
    const double expected =
        fresh.ok() ? fresh.value().total_cost +
                         (args.corrupt_expected ? 1.0 : 0.0)
                   : 0.0;
    report->Check("session_equals_fresh_run_" + SessionName(c),
                  fresh.ok() && lane.costs.back() == expected,
                  "session " + std::to_string(lane.costs.back()) +
                      " fresh " + std::to_string(expected) + " after " +
                      std::to_string(lane.costs.size()) + " deltas");
    checkpoint_cost += lane.costs[kCostCheckpoint - 1];
  }

  // ---- in-process twins: the same streams through ApplyDelta, checked
  // reply for reply against the wire. Untraced runs replay the first
  // kCostCheckpoint deltas; the traced run replays up to
  // kTracedTwinDeltas with a TraceBuilder, then client 0's again
  // untraced for the tracing overhead (and the check that watching does
  // not change inference).
  std::vector<Twin> twins;
  for (int c = 0; c < kClients; ++c) {
    const size_t count =
        args.trace ? std::min(lanes[c].costs.size(), kTracedTwinDeltas)
                   : kCostCheckpoint;
    log.SetRun(static_cast<uint32_t>(c));
    twins.push_back(ReplayTwin(ds, sopts, streams[c], count,
                               (wal_root / ("twin" + std::to_string(c))),
                               &log, static_cast<uint32_t>(kClients + c + 1)));
    const Twin& twin = twins.back();
    const std::vector<double> wire(lanes[c].costs.begin(),
                                   lanes[c].costs.begin() + count);
    std::vector<double> expected = wire;
    if (args.corrupt_expected) expected.back() += 1.0;
    report->Check("twin_equals_wire_" + SessionName(c),
                  twin.ok && twin.costs == expected,
                  std::to_string(count) + " deltas, twin final " +
                      std::to_string(twin.costs.empty() ? 0.0
                                                        : twin.costs.back()));
  }
  Twin untraced;
  if (args.trace) {
    SpanLog off(false);
    untraced = ReplayTwin(ds, sopts, streams[0], twins[0].costs.size(),
                          (wal_root / "untraced").string(), &off, 0);
    report->Check("tracing_bit_identical",
                  untraced.ok && untraced.costs == twins[0].costs &&
                      untraced.final_truth == twins[0].final_truth);
  }
  fs::remove_all(wal_root);

  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("infer_s", Median(fresh_s), "s");
    report->Metric("map_cost", checkpoint_cost / kClients, "cost");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("op_p50_ms", Quantile(delta_ms, 0.5), "ms");
    report->Metric("op_p90_ms", Quantile(delta_ms, 0.9), "ms");
    report->Metric("ops_per_s", deltas / window, "1/s");
    report->Metric("read_p50_ms", Quantile(read_ms, 0.5), "ms");
    report->Metric("read_p90_ms", Quantile(read_ms, 0.9), "ms");
    return 0;
  }

  size_t twin_deltas = 0;
  uint64_t twin_flips = 0, twin_bindings = 0, twin_wal_bytes = 0;
  double dirty_sum = 0.0;
  std::vector<double> open_s, apply_ms;
  for (const Twin& t : twins) {
    twin_deltas += t.costs.size();
    twin_flips += t.flips;
    twin_bindings += t.bindings;
    twin_wal_bytes += t.wal_bytes;
    dirty_sum += t.dirty_frac_sum;
    open_s.push_back(t.open_s);
    apply_ms.insert(apply_ms.end(), t.apply_ms.begin(), t.apply_ms.end());
  }
  const double n = static_cast<double>(std::max<size_t>(twin_deltas, 1));
  auto wire_mean_ms = [&](const std::string& hist) {
    const double count = wire_delta(hist + ".count");
    return count > 0 ? wire_delta(hist + ".sum") / count * 1e3 : 0.0;
  };
  // The mcsat.refresh spans of one delta run on pool workers; their sum
  // is the refresh work per delta.
  const std::vector<double> mcsat = log.Seconds("mcsat.refresh");
  double mcsat_total = 0.0;
  for (double s : mcsat) mcsat_total += s;
  const double wire_overhead_ms = Median(delta_ms) - Median(apply_ms);

  report->Metric("serve.open.s", Median(open_s), "s");
  report->Metric("serve.apply.ms", MeanSpanMs(log, "apply_delta"), "ms");
  report->Metric("serve.search.ms", MeanSpanMs(log, "search"), "ms");
  report->Metric("serve.mcsat.ms", mcsat_total / n * 1e3, "ms");
  report->Metric("serve.flips_per_delta", twin_flips / n, "count");
  report->Metric("serve.dirty_frac", dirty_sum / n, "ratio");
  report->Metric("ground.delta.ms", MeanSpanMs(log, "ground.delta"), "ms");
  report->Metric("ground.delta.bindings", twin_bindings / n, "count");
  report->Metric("wal.append.ms", MeanSpanMs(log, "wal.append"), "ms");
  report->Metric("wal.fsync.ms", MeanSpanMs(log, "wal.fsync"), "ms");
  report->Metric("wal.bytes_per_delta", twin_wal_bytes / n, "B");
  report->Metric("snapshot.write.ms", MeanSpanMs(log, "snapshot.write"), "ms");
  report->Metric("net.queue_wait.ms",
                 wire_mean_ms("net.lane.queue.wait.seconds"), "ms");
  report->Metric("net.server.ms", wire_mean_ms("net.delta.wire.seconds"),
                 "ms");
  report->Metric("net.wire_overhead.ms", wire_overhead_ms, "ms");
  report->Metric(
      "net.bytes_per_op",
      static_cast<double>(server_after.bytes_in + server_after.bytes_out -
                          server_before.bytes_in - server_before.bytes_out) /
          static_cast<double>(std::max<uint64_t>(attempted, 1)),
      "B");
  report->Metric("net.retries", retries, "count");
  report->Metric("net.read.flips", static_cast<double>(read_flips), "count");
  report->Metric("trace.overhead.delta_p50_ms",
                 Median(twins[0].apply_ms) - Median(untraced.apply_ms), "ms");
  ReportSpans(log, args, n, report);
  // The wire spans belong to the benchmark's clients; the net layer's own
  // share per delta is what the wire adds over the in-process twin.
  report->Metric("self.net.s", wire_overhead_ms / 1e3, "s");
  return 0;
}

}  // namespace perfbench

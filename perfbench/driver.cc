// modb_perfbench: runs one benchmark workload against a Release modbd
// and prints its metrics; see perfbench/README.md.
//
//   modb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --modbd PATH --work DIR
//
// --trace 0 measures the end-to-end metrics over the wire. --trace 1
// runs the same measurement, then replays the recorded request stream
// in-process with spans around each layer's public call, and prints
// the per-layer metrics instead. Every run byte-compares a seeded
// sample of the replies against an in-process Db built from the same
// inputs. The last stdout line is one JSON object with every metric
// the run computed:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit code 0 only when every check passed.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "db/modb.h"
#include "gen/flights_gen.h"
#include "ingest/live_relation.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "process.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "storage/recovery.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using modb::MutationRequest;
using modb::QueryRequest;
using modb::Status;

// modbd's fixed inputs: the planes seed never varies with --seed.
constexpr int kPlanesSeed = 99;
constexpr double kWarmupS = 2.0;
// Launches per run whose median is setup_s.
constexpr int kSetupLaunches = 9;
// modbd's default LSM maintenance interval, replayed in-process.
constexpr auto kMergeInterval = std::chrono::milliseconds(500);
// Span-sum tolerance: per request, |total - sum of span self times|
// may be at most 5% of the total plus 3 us, for at least 98% of the
// traced requests.
constexpr double kSpanTolShare = 0.05;
constexpr double kSpanTolUs = 3.0;
constexpr double kSpanTolRequests = 0.98;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string modbd;
  std::string work;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / double(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t HashBlock(const std::string& block) {
  return std::hash<std::string_view>{}(block);
}

// ---------------------------------------------------------------------------
// Output: every metric by name and unit, then the one-line JSON result.

struct Metric {
  double value = 0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_[name] = {value, unit, note};
  }
  const Metric* Get(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? nullptr : &it->second;
  }
  void Fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  }
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  void CountFailures(std::uint64_t n) { failed_ += n; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t attempted() const { return attempted_; }
  bool correct() const { return failed_ == 0; }

  void PrintAll() const {
    for (const auto& [name, m] : metrics_) {
      std::printf("metric %-40s %16.6f %-6s %s\n", name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }

  /// The result line, carrying every metric the run computed
  /// (run.py keeps the ones BENCHMARK.json lists for the mode).
  void PrintJson() const {
    using modb::obs::JsonValue;
    JsonValue doc = JsonValue::Object();
    doc.Set("correct", JsonValue::Bool(correct()));
    doc.Set("attempted", JsonValue::Int(std::max<std::uint64_t>(1, attempted_)));
    doc.Set("failed", JsonValue::Int(failed_));
    JsonValue ms = JsonValue::Object();
    for (const auto& [name, m] : metrics_) {
      JsonValue one = JsonValue::Object();
      one.Set("value", JsonValue::Number(m.value));
      one.Set("unit", JsonValue::Str(m.unit));
      ms.Set(name, std::move(one));
    }
    doc.Set("metrics", std::move(ms));
    std::printf("%s\n", doc.Write().c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// The end-to-end run.

struct QueryRecord {
  GeneratedQuery q;
  /// Offsets from the load epoch, ns.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool ok = false;
  bool sampled = false;
  std::uint64_t hash = 0;
};

struct BatchRecord {
  std::int64_t due_ns = 0;
  std::int64_t ack_ns = 0;
  bool ok = false;
  modb::MutationResult ack;
};

struct Run {
  const WorkloadSpec* spec = nullptr;
  Args args;
  CpuPlan cpus;
  int num_threads = 1;
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
  std::vector<std::vector<QueryRecord>> conns;
  std::vector<modb::MutationRequest> batches;
  std::vector<BatchRecord> acks;
  std::uint64_t query_errors = 0;
  std::uint64_t query_rejected = 0;
  std::string first_error;
  std::map<std::string, double> counters_start;
  std::map<std::string, double> counters_end;
  double store_bytes = 0;

  bool InWindow(std::int64_t start_ns, std::int64_t end_ns) const {
    return start_ns >= window_start_ns && end_ns <= window_end_ns;
  }
  double Delta(const std::string& counter) const {
    auto a = counters_start.find(counter);
    auto b = counters_end.find(counter);
    const double va = a == counters_start.end() ? 0 : a->second;
    const double vb = b == counters_end.end() ? 0 : b->second;
    return vb - va;
  }
};

std::string StorePath(const Args& a) { return a.work + "/live.store"; }

std::vector<std::string> ModbdArgs(const Run& run) {
  std::vector<std::string> args = {
      "--flights=" + std::to_string(run.spec->flights),
      "--seed=" + std::to_string(kPlanesSeed)};
  if (run.spec->live) {
    args.push_back(std::string("--live=") + kLiveRelation);
    args.push_back("--store=" + StorePath(run.args));
    args.push_back("--device=file");
  }
  return args;
}

modb::Result<std::map<std::string, double>> FetchCounters(int port) {
  modb::Result<std::string> json =
      modb::serve::FetchMetricsJson("127.0.0.1", port, 30000);
  if (!json.ok()) return json.status();
  modb::Result<modb::obs::JsonValue> doc = modb::obs::JsonValue::Parse(*json);
  if (!doc.ok()) return doc.status();
  std::map<std::string, double> out;
  if (const modb::obs::JsonValue* c = doc->Find("counters")) {
    for (const auto& [name, v] : c->members()) out[name] = v.number_value();
  }
  return out;
}

modb::serve::ClientOptions NetOptions() {
  modb::serve::ClientOptions o;
  o.connect_timeout_ms = 30000;
  o.io_timeout_ms = 60000;
  return o;
}

bool Sampled(const Run& run, int conn, std::uint64_t index) {
  return StreamKey(run.args.seed, 0xface, (std::uint64_t(conn) << 40) | index) %
             std::uint64_t(run.spec->verify_one_in) ==
         0;
}

// One closed-loop query connection. Live connections wait for the
// first acknowledged batch and aim their windows at the frontier.
void QueryLoop(Run* run, int conn, int port, Clock::time_point epoch,
               const std::atomic<double>* frontier,
               const std::atomic<bool>* stop, std::mutex* err_mu) {
  auto note = [&](const std::string& what, bool rejected) {
    std::lock_guard lock(*err_mu);
    (rejected ? run->query_rejected : run->query_errors)++;
    if (run->first_error.empty()) run->first_error = what;
  };
  modb::Result<modb::serve::Client> client =
      modb::serve::Client::Connect("127.0.0.1", port, NetOptions());
  if (!client.ok()) {
    note("connect: " + client.status().ToString(), false);
    return;
  }
  const auto now_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
  };
  if (run->spec->live) {
    while (frontier->load() < 8 && !stop->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::vector<QueryRecord>& recs = run->conns[std::size_t(conn)];
  for (std::uint64_t i = 0; !stop->load(std::memory_order_relaxed); ++i) {
    QueryRecord r;
    r.q = MakeQuery(*run->spec, run->args.seed, conn, i, run->num_threads,
                    frontier->load());
    r.sampled = Sampled(*run, conn, i);
    r.start_ns = now_ns();
    modb::Result<modb::serve::Client::Reply> reply = client->Query(r.q.request);
    r.end_ns = now_ns();
    if (!reply.ok()) {
      note("transport: " + reply.status().ToString(), false);
      recs.push_back(std::move(r));
      return;  // the connection is unusable after a transport error
    }
    if (!reply->status.ok()) {
      note(std::string(run->spec->kinds[std::size_t(r.q.kind)].name) + ": " +
               reply->status.ToString(),
           reply->status.code() == modb::StatusCode::kResourceExhausted);
    } else {
      r.ok = true;
      if (r.sampled) r.hash = HashBlock(reply->result_block);
    }
    recs.push_back(std::move(r));
  }
}

// The open-loop writer: batch b is due at b / batches_per_second and is
// sent then (or as soon as the previous ack returns, when it is late).
void IngestLoop(Run* run, int port, Clock::time_point epoch,
                std::atomic<double>* frontier, std::mutex* err_mu) {
  modb::Result<modb::serve::Client> client =
      modb::serve::Client::Connect("127.0.0.1", port, NetOptions());
  if (!client.ok()) {
    std::lock_guard lock(*err_mu);
    run->first_error = "ingest connect: " + client.status().ToString();
    return;
  }
  const double per_s = kLiveFixesPerSecond / kLiveBatchFixes;
  for (std::size_t b = 0; b < run->batches.size(); ++b) {
    BatchRecord rec;
    rec.due_ns = std::int64_t(double(b) / per_s * 1e9);
    std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(rec.due_ns));
    modb::Result<modb::serve::Client::MutationReply> r =
        client->Mutate(run->batches[b]);
    rec.ack_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - epoch)
                     .count();
    rec.ok = r.ok() && r->status.ok();
    if (rec.ok) {
      rec.ack = r->ack;
      frontier->store(double(b));
    } else {
      std::lock_guard lock(*err_mu);
      if (run->first_error.empty()) {
        run->first_error = "ingest batch " + std::to_string(b) + ": " +
                           (r.ok() ? r->status.ToString()
                                   : r.status().ToString());
      }
    }
    run->acks.push_back(rec);
    if (!r.ok()) return;
  }
}

// Launches modbd kSetupLaunches times (setup_s is their median), keeps
// the last one, and drives the workload against it.
modb::Result<Modbd> RunLoad(Run* run, Report* report) {
  std::vector<double> setups;
  std::optional<Modbd> server;
  for (int i = 0; i < kSetupLaunches; ++i) {
    if (server) {
      Status s = server->Stop();
      if (!s.ok()) return s;
      server.reset();
    }
    if (run->spec->live) std::remove(StorePath(run->args).c_str());
    modb::Result<Modbd> m = Modbd::Launch(run->args.modbd, ModbdArgs(*run),
                                          run->cpus.server,
                                          std::chrono::seconds(120));
    if (!m.ok()) return m.status();
    setups.push_back(m->setup_s());
    server.emplace(std::move(*m));
  }
  report->Set("setup_s", Quantile(setups, 0.5), "s",
              "median of " + std::to_string(kSetupLaunches) + " launches");

  const int port = server->port();
  run->conns.resize(std::size_t(run->spec->query_connections));
  if (run->spec->live) {
    const double total_s = kWarmupS + run->args.seconds + 0.5;
    run->batches = MakeBatches(
        run->args.seed,
        std::size_t(total_s * kLiveFixesPerSecond / kLiveBatchFixes));
  }
  std::atomic<bool> stop{false};
  std::atomic<double> frontier{-1};
  std::mutex err_mu;
  const Clock::time_point epoch = Clock::now();
  run->window_start_ns = std::int64_t(kWarmupS * 1e9);
  run->window_end_ns = std::int64_t((kWarmupS + run->args.seconds) * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < run->spec->query_connections; ++c) {
    threads.emplace_back(QueryLoop, run, c, port, epoch, &frontier, &stop,
                         &err_mu);
  }
  if (run->spec->live) {
    threads.emplace_back(IngestLoop, run, port, epoch, &frontier, &err_mu);
  }
  std::this_thread::sleep_until(epoch +
                                std::chrono::nanoseconds(run->window_start_ns));
  modb::Result<std::map<std::string, double>> c0 = FetchCounters(port);
  std::this_thread::sleep_until(epoch +
                                std::chrono::nanoseconds(run->window_end_ns));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  modb::Result<std::map<std::string, double>> c1 = FetchCounters(port);
  if (!c0.ok() || !c1.ok()) {
    return Status::Internal("fetching /metrics failed");
  }
  run->counters_start = *c0;
  run->counters_end = *c1;
  report->Set("peak_rss_mb", server->StatusField("VmHWM") / 1024.0, "MB",
              "modbd VmHWM at the end of the run");
  report->Set("serve.threads_end", server->StatusField("Threads"), "count");
  return *std::move(server);
}

// Throughput and medians are medians over kBlocks equal slices of the
// measured window, so a burst of interference from outside the
// benchmark that hits one slice cannot move them. p99 is the median of
// the p99s of consecutive groups of at least kP99Samples requests
// (10 beyond each p99), or of the whole window when it holds fewer.
constexpr int kBlocks = 6;
constexpr std::size_t kP99Samples = 1000;

double BlockMedian(const std::vector<std::vector<double>>& blocks) {
  std::vector<double> medians;
  for (const std::vector<double>& b : blocks) {
    if (!b.empty()) medians.push_back(Quantile(b, 0.5));
  }
  return Quantile(medians, 0.5);
}

void EndToEndMetrics(const Run& run, Report* report) {
  using Blocks = std::vector<std::vector<double>>;
  std::vector<double> all;
  std::vector<std::pair<std::int64_t, double>> by_start;
  Blocks all_blocks(kBlocks);
  std::vector<Blocks> class_blocks(kNumClasses, Blocks(kBlocks));
  std::vector<std::size_t> class_n(kNumClasses, 0);
  std::uint64_t attempted = 0;
  const double block_ns =
      double(run.window_end_ns - run.window_start_ns) / kBlocks;
  for (const std::vector<QueryRecord>& recs : run.conns) {
    attempted += recs.size();
    for (const QueryRecord& r : recs) {
      if (!r.ok || !run.InWindow(r.start_ns, r.end_ns)) continue;
      const double ms = double(r.end_ns - r.start_ns) / 1e6;
      const std::size_t b = std::min<std::size_t>(
          kBlocks - 1, std::size_t(double(r.start_ns - run.window_start_ns) /
                                   block_ns));
      const int k = int(run.spec->kinds[std::size_t(r.q.kind)].klass);
      all.push_back(ms);
      by_start.emplace_back(r.start_ns, ms);
      all_blocks[b].push_back(ms);
      class_blocks[std::size_t(k)][b].push_back(ms);
      ++class_n[std::size_t(k)];
    }
  }
  std::uint64_t batch_errors = 0;
  for (const BatchRecord& a : run.acks) batch_errors += a.ok ? 0 : 1;
  report->Attempt(attempted + run.acks.size());
  report->CountFailures(run.query_errors + run.query_rejected + batch_errors);
  std::vector<double> block_qps;
  for (const std::vector<double>& b : all_blocks) {
    block_qps.push_back(double(b.size()) / (block_ns / 1e9));
  }
  std::printf("perfbench: qps by block:");
  for (double q : block_qps) std::printf(" %.1f", q);
  std::printf("\n");
  const std::string n = "n=" + std::to_string(all.size());
  report->Set("qps", Quantile(block_qps, 0.5), "1/s", n);
  report->Set("query_p50_ms", BlockMedian(all_blocks), "ms", n);
  std::sort(by_start.begin(), by_start.end());
  const std::size_t groups = std::clamp<std::size_t>(
      by_start.size() / kP99Samples, 1, std::size_t(kBlocks));
  std::vector<double> group_p99;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<double> group;
    for (std::size_t i = g * by_start.size() / groups;
         i < (g + 1) * by_start.size() / groups; ++i) {
      group.push_back(by_start[i].second);
    }
    group_p99.push_back(Quantile(group, 0.99));
  }
  report->Set("query_p99_ms", Quantile(group_p99, 0.5), "ms",
              n + " in " + std::to_string(groups) + " groups");
  for (int k = 0; k < kNumClasses; ++k) {
    report->Set(std::string(KlassName(Klass(k))) + "_p50_ms",
                BlockMedian(class_blocks[std::size_t(k)]), "ms",
                "n=" + std::to_string(class_n[std::size_t(k)]));
  }
  if (all.size() < 1000) {
    std::printf("perfbench: note: only %zu pooled query samples (< 1000)\n",
                all.size());
  }
  if (!run.spec->live) {
    // The live-only metrics read 0 where nothing is ingested.
    report->Set("ingest_ack_p50_ms", 0, "ms", "no ingest in this workload");
    report->Set("ingest_ack_p99_ms", 0, "ms", "no ingest in this workload");
    report->Set("store_bytes_per_fix", 0, "B", "no ingest in this workload");
    return;
  }

  std::vector<double> ack_ms;
  std::uint64_t fixes_acked = 0;
  std::int64_t max_lag_ns = 0;
  for (std::size_t b = 0; b < run.acks.size(); ++b) {
    const BatchRecord& a = run.acks[b];
    if (!a.ok) continue;
    fixes_acked += a.ack.accepted;
    if (a.due_ns >= run.window_start_ns && a.due_ns < run.window_end_ns) {
      ack_ms.push_back(double(a.ack_ns - a.due_ns) / 1e6);
    }
    // How late the generator ran: the previous ack past this due time.
    if (b > 0) {
      max_lag_ns = std::max(max_lag_ns, run.acks[b - 1].ack_ns - a.due_ns);
    }
  }
  const std::string an = "n=" + std::to_string(ack_ms.size());
  report->Set("ingest_ack_p50_ms", Quantile(ack_ms, 0.5), "ms", an);
  report->Set("ingest_ack_p99_ms", Quantile(ack_ms, 0.99), "ms", an);
  report->Set("ingest.generator_max_lag_ms", double(max_lag_ns) / 1e6, "ms");
  report->Set("store_bytes_per_fix", Ratio(run.store_bytes, double(fixes_acked)),
              "B", "store file bytes / fixes acked");
}

// ---------------------------------------------------------------------------
// Verification against an in-process Db built from the same inputs.

std::unique_ptr<modb::Db> ResidentDb(const WorkloadSpec& spec) {
  modb::FlightsOptions gen;
  gen.num_flights = spec.flights;
  gen.seed = kPlanesSeed;
  modb::Result<modb::Relation> planes = modb::GeneratePlanes(gen);
  if (!planes.ok()) return nullptr;
  auto db = std::make_unique<modb::Db>();
  if (!db->Register(*std::move(planes)).ok()) return nullptr;
  if (!db->BuildIndex("planes", "flight").ok()) return nullptr;
  return db;
}

modb::Result<std::string> LocalBlock(const modb::Db& db, const QueryRequest& q,
                                     modb::ThreadPool* pool) {
  modb::ExecOptions o;
  o.parallel.num_threads = int(q.num_threads);
  o.parallel.pool = pool;
  modb::Result<modb::QueryResult> r = db.Run(q, o);
  if (!r.ok()) return r.status();
  return modb::serve::EncodeResultBlock(*r);
}

void VerifyResident(const Run& run, modb::ThreadPool* pool, Report* report) {
  std::unique_ptr<modb::Db> db = ResidentDb(*run.spec);
  if (db == nullptr) {
    report->Fail("building the reference Db failed");
    return;
  }
  std::uint64_t checked = 0, mismatches = 0;
  for (const std::vector<QueryRecord>& recs : run.conns) {
    for (const QueryRecord& r : recs) {
      if (!r.sampled || !r.ok) continue;
      ++checked;
      modb::Result<std::string> block = LocalBlock(*db, r.q.request, pool);
      if (!block.ok() || HashBlock(*block) != r.hash) ++mismatches;
    }
  }
  report->Attempt(checked);
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) + " of " + std::to_string(checked) +
                 " sampled replies differ from the reference Db");
  }
  std::printf("perfbench: verify: %" PRIu64 " sampled replies byte-compared, "
              "%" PRIu64 " mismatches\n",
              checked, mismatches);
}

// Quiesced live check: the server's state must equal one application of
// every acknowledged batch. Replays them into a local Db and
// byte-compares fresh requests of every live kind, then checks that the
// accepted fixes equal the fixes sent.
void VerifyLive(Run* run, int port, Report* report) {
  modb::Db local;
  if (!local.RegisterLive(kLiveRelation).ok()) {
    report->Fail("registering the reference live relation failed");
    return;
  }
  std::uint64_t sent = 0, accepted = 0;
  double frontier = -1;
  for (std::size_t b = 0; b < run->acks.size(); ++b) {
    const MutationRequest& m = run->batches[b];
    sent += m.fixes.size();
    if (!run->acks[b].ok) continue;
    accepted += run->acks[b].ack.accepted;
    frontier = double(b);
    if (!local.Apply(m).ok()) {
      report->Fail("reference replay of batch " + std::to_string(b) + " failed");
      return;
    }
  }
  report->Attempt(run->acks.size());
  if (accepted != sent) {
    report->Fail("accepted " + std::to_string(accepted) + " fixes != " +
                 std::to_string(sent) + " sent (not exactly-once)");
  }
  modb::Result<modb::serve::Client> client =
      modb::serve::Client::Connect("127.0.0.1", port, NetOptions());
  if (!client.ok()) {
    report->Fail("verify connect: " + client.status().ToString());
    return;
  }
  std::uint64_t checked = 0, mismatches = 0;
  for (std::uint64_t i = 0; i < 4 * run->spec->kinds.size(); ++i) {
    // A connection number no load connection uses: fresh requests.
    const GeneratedQuery g = MakeQuery(*run->spec, run->args.seed, 1000, i,
                                       run->num_threads, frontier);
    ++checked;
    modb::Result<modb::serve::Client::Reply> remote = client->Query(g.request);
    modb::Result<std::string> block = LocalBlock(local, g.request, nullptr);
    if (!remote.ok() || !remote->status.ok() || !block.ok() ||
        remote->result_block != *block) {
      ++mismatches;
    }
  }
  report->Attempt(checked);
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) + " live replies differ from the " +
                 "exactly-once local replay");
  }
  std::printf("perfbench: verify: %" PRIu64 " live replies byte-compared after "
              "quiescing, %" PRIu64 " mismatches; %" PRIu64 "/%" PRIu64
              " fixes accepted\n",
              checked, mismatches, accepted, sent);
}

// ---------------------------------------------------------------------------
// The in-process replay: the same request stream through the same
// public calls modbd makes, untraced and with spans around each layer.

// Query request ids; mutation ids are batch indexes, far below.
constexpr std::uint64_t kQueryIdBase = std::uint64_t(1) << 40;

struct Replayed {
  Klass klass = Klass::kSelect;
  bool mutation = false;
  std::uint64_t request = 0;
  /// In-process totals; a measured query runs once each way, a
  /// mutation once (traced on every other batch). -1 = not run so.
  double untraced_us = -1;
  double traced_us = -1;
  bool traced_first = false;
};

struct ReplayOut {
  std::vector<Replayed> requests;
  std::vector<Span> spans;
  std::vector<modb::ExecStats> stats;  // one per measured query
  std::vector<double> db_run_us[kNumClasses];
  std::vector<double> plan_us;
  std::vector<double> merge_us;
  std::vector<double> reply_bytes;
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;
};

// What one replayed query leaves behind. The caller frees it after
// taking the request's total: modbd frees the encoded reply after the
// socket write and the client owns the decoded reply, so neither
// free is on the reply path.
struct QueryOut {
  std::string block;
  std::string reply;
  modb::QueryResult decoded;
  modb::ExecStats stats;
  double db_run_us = 0;
};

class InProcess {
 public:
  InProcess(modb::Db* db, modb::ThreadPool* pool) : db_(db), pool_(pool) {}

  // One query as Server::HandleQuery and Client::Query run it, minus
  // the sockets. `t` is null for an untraced request.
  Status Query(const QueryRequest& req, Tracer* t, std::uint64_t rid,
               QueryOut* out) {
    int s = Begin(t, "wire.encode_request", rid);
    const std::string payload = modb::serve::EncodeQueryRequest(req);
    End(t, s);
    s = Begin(t, "wire.decode_request", rid);
    modb::Result<QueryRequest> decoded =
        modb::serve::DecodeQueryRequest(payload);
    End(t, s);
    if (!decoded.ok()) return decoded.status();
    modb::ExecOptions options;
    options.parallel.num_threads = int(decoded->num_threads);
    options.parallel.pool = pool_;
    const std::int64_t cost =
        std::int64_t(modb::ResolveWorkerCount(options.parallel));
    const int adm = Begin(t, "serve.admission", rid);
    MODB_RETURN_IF_ERROR(admission_.Acquire(cost));
    const Clock::time_point acquired = Clock::now();
    const int run = Begin(t, "db.run", rid, adm);
    modb::Result<modb::QueryResult> result = db_->Run(*decoded, options);
    End(t, run);
    const Clock::time_point ran = Clock::now();
    admission_.Release(cost, std::uint64_t((ran - acquired).count()));
    End(t, adm);
    if (!result.ok()) return result.status();
    out->db_run_us = double((ran - acquired).count()) / 1e3;
    if (t != nullptr) {
      // The ExecStats root is the engine's share of db.run; it ends
      // where db.run ends.
      const Span& r = t->spans()[std::size_t(run)];
      const std::int64_t wall = std::min<std::int64_t>(
          std::int64_t(result->stats.wall_ns), r.end_ns - r.start_ns);
      t->Add("exec.pipeline", rid, run, r.end_ns - wall, r.end_ns);
    }
    out->stats = result->stats;
    s = Begin(t, "wire.encode_reply", rid);
    modb::Result<std::string> reply =
        modb::serve::EncodeReply(Status::OK(), &*result);
    End(t, s);
    if (!reply.ok()) return reply.status();
    // HandleQuery frees its QueryResult before the reply is written.
    s = Begin(t, "serve.free_result", rid);
    { const modb::Result<modb::QueryResult> freed = std::move(result); }
    End(t, s);
    out->reply = *std::move(reply);
    s = Begin(t, "wire.decode_reply", rid);
    modb::Result<modb::serve::WireReply> wire =
        modb::serve::DecodeReply(out->reply);
    modb::Result<modb::QueryResult> back =
        wire.ok() ? modb::serve::DecodeResultBlock(wire->result_block)
                  : modb::Result<modb::QueryResult>(wire.status());
    if (back.ok() && !wire->stats_json.empty()) {
      modb::Result<modb::ExecStats> st =
          modb::ExecStats::FromJson(wire->stats_json);
      if (!st.ok()) back = st.status();
    }
    End(t, s);
    if (!back.ok()) return back.status();
    out->decoded = std::move(*back);
    out->block = std::move(wire->result_block);
    return Status::OK();
  }

  // One ingest batch as Server::HandleMutation and Client::Mutate run it.
  Status Mutate(const MutationRequest& req, Tracer* t, std::uint64_t rid) {
    int s = Begin(t, "wire.encode_request", rid);
    const std::string payload = modb::serve::EncodeMutationRequest(req);
    End(t, s);
    s = Begin(t, "wire.decode_request", rid);
    modb::Result<MutationRequest> decoded =
        modb::serve::DecodeMutationRequest(payload);
    End(t, s);
    if (!decoded.ok()) return decoded.status();
    const int adm = Begin(t, "serve.admission", rid);
    MODB_RETURN_IF_ERROR(admission_.Acquire(1));
    const Clock::time_point acquired = Clock::now();
    const int apply = Begin(t, "db.apply", rid, adm);
    modb::Result<modb::MutationResult> ack = db_->Apply(*decoded);
    End(t, apply);
    const Clock::time_point applied = Clock::now();
    admission_.Release(1, std::uint64_t((applied - acquired).count()));
    End(t, adm);
    if (!ack.ok()) return ack.status();
    s = Begin(t, "wire.encode_reply", rid);
    modb::Result<std::string> reply =
        modb::serve::EncodeMutationReply(Status::OK(), &*ack);
    End(t, s);
    if (!reply.ok()) return reply.status();
    s = Begin(t, "wire.decode_reply", rid);
    modb::Result<modb::serve::WireReply> wire = modb::serve::DecodeReply(*reply);
    Status st = wire.ok() ? modb::serve::DecodeMutationAck(wire->result_block)
                                .status()
                          : wire.status();
    End(t, s);
    return st;
  }

 private:
  static int Begin(Tracer* t, const char* name, std::uint64_t rid,
                   int parent = -1) {
    return t != nullptr ? t->Begin(name, rid, parent) : -1;
  }
  static void End(Tracer* t, int id) {
    if (t != nullptr) t->End(id);
  }

  modb::Db* db_;
  modb::ThreadPool* pool_;
  // modbd's defaults.
  modb::serve::AdmissionController admission_{64, 64};
};

// Replays connection `conn`'s recorded queries. Live queries keep
// their recorded start offsets, so they meet the data size they met on
// the wire; resident ones run closed-loop.
void ReplayQueries(const Run& run, int conn, InProcess* ip,
                   Clock::time_point epoch, Tracer* tracer, ReplayOut* out,
                   std::mutex* mu) {
  const std::vector<QueryRecord>& recs = run.conns[std::size_t(conn)];
  ReplayOut part;
  Clock::time_point pass0_start;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const QueryRecord& r = recs[i];
    if (run.spec->live) {
      std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(r.start_ns));
    }
    const bool measured = r.ok && run.InWindow(r.start_ns, r.end_ns);
    Replayed rep;
    rep.klass = run.spec->kinds[std::size_t(r.q.kind)].klass;
    rep.request = kQueryIdBase * std::uint64_t(conn + 1) + i;
    rep.traced_first = i % 2 == 1;
    // A measured request runs untraced and traced back to back, the
    // order alternating so neither side always finds warm caches. A
    // live request runs its second pass only when that cannot delay the
    // next request past its recorded start (the relation grows with
    // time, so a late request would meet more data than on the wire).
    const Clock::time_point next_start =
        i + 1 < recs.size()
            ? epoch + std::chrono::nanoseconds(recs[i + 1].start_ns)
            : Clock::time_point::max();
    for (int pass = 0; pass < (measured ? 2 : 1); ++pass) {
      const bool traced = measured && (pass == 0) == rep.traced_first;
      if (pass == 1 && run.spec->live &&
          Clock::now() + (Clock::now() - pass0_start) > next_start) {
        break;
      }
      if (pass == 0) pass0_start = Clock::now();
      QueryOut q;
      const Clock::time_point start = Clock::now();
      const Status st =
          ip->Query(r.q.request, traced ? tracer : nullptr, rep.request, &q);
      const double total_us = double((Clock::now() - start).count()) / 1e3;
      if (!st.ok()) {
        ++part.errors;
        continue;
      }
      if (r.sampled && !run.spec->live && HashBlock(q.block) != r.hash) {
        ++part.mismatches;
      }
      if (!traced) {
        rep.untraced_us = total_us;
        continue;
      }
      rep.traced_us = total_us;
      part.db_run_us[int(rep.klass)].push_back(q.db_run_us);
      part.plan_us.push_back(q.db_run_us - double(q.stats.wall_ns) / 1e3);
      part.reply_bytes.push_back(double(q.reply.size()));
      part.stats.push_back(std::move(q.stats));
    }
    if (measured) part.requests.push_back(rep);
  }
  std::lock_guard lock(*mu);
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  out->requests.insert(out->requests.end(), part.requests.begin(),
                       part.requests.end());
  for (int k = 0; k < kNumClasses; ++k) {
    append(&out->db_run_us[k], part.db_run_us[k]);
  }
  append(&out->plan_us, part.plan_us);
  append(&out->reply_bytes, part.reply_bytes);
  for (modb::ExecStats& st : part.stats) out->stats.push_back(std::move(st));
  out->mismatches += part.mismatches;
  out->errors += part.errors;
}

void AppendSpans(const Tracer& t, std::vector<Span>* out) {
  const int offset = int(out->size());
  for (Span s : t.spans()) {
    if (s.parent >= 0) s.parent += offset;
    out->push_back(s);
  }
}

// Replays the run in-process on the CPUs modbd held.
modb::Result<ReplayOut> Replay(const Run& run, modb::ThreadPool* pool) {
  ReplayOut out;
  std::unique_ptr<modb::Db> db = ResidentDb(*run.spec);
  if (db == nullptr) return Status::Internal("building the replay Db failed");
  std::optional<modb::VersionedSpillStore> store;
  const std::string store_path = run.args.work + "/replay.store";
  if (run.spec->live) {
    std::remove(store_path.c_str());
    MODB_RETURN_IF_ERROR(db->RegisterLive(kLiveRelation));
    modb::VersionedSpillStore::Options so;
    so.device = modb::StoreDeviceKind::kFile;
    modb::Result<modb::VersionedSpillStore> created =
        modb::VersionedSpillStore::Create(store_path, so);
    MODB_RETURN_IF_ERROR(created.status());
    store.emplace(std::move(*created));
    MODB_RETURN_IF_ERROR(db->AttachLiveStore(kLiveRelation, &*store));
  }
  InProcess ip(db.get(), pool);
  const Clock::time_point epoch = Clock::now();
  std::mutex mu;
  // One tracer per query connection, plus the writer's.
  std::vector<Tracer> tracers(run.conns.size() + 1, Tracer(epoch));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < run.conns.size(); ++c) {
    threads.emplace_back(ReplayQueries, std::cref(run), int(c), &ip, epoch,
                         &tracers[c], &out, &mu);
  }
  std::atomic<bool> ingest_done{false};
  std::vector<Replayed> mutations;
  std::vector<double> merge_us;
  std::thread merger;
  if (run.spec->live) {
    threads.emplace_back([&] {
      Tracer* t = &tracers[run.conns.size()];
      for (std::size_t b = 0; b < run.acks.size(); ++b) {
        if (!run.acks[b].ok) continue;
        std::this_thread::sleep_until(
            epoch + std::chrono::nanoseconds(run.acks[b].due_ns));
        Replayed rep;
        rep.mutation = true;
        rep.request = b;
        const bool measured = run.acks[b].due_ns >= run.window_start_ns &&
                              run.acks[b].due_ns < run.window_end_ns;
        const bool traced = measured && b % 2 == 1;
        const Clock::time_point start = Clock::now();
        Status s = ip.Mutate(run.batches[b], traced ? t : nullptr, rep.request);
        const double total_us = double((Clock::now() - start).count()) / 1e3;
        if (!s.ok()) {
          std::lock_guard lock(mu);
          ++out.errors;
          continue;
        }
        (traced ? rep.traced_us : rep.untraced_us) = total_us;
        if (measured) mutations.push_back(rep);
      }
      ingest_done.store(true);
    });
    // modbd's maintenance thread: one MergeLive round per interval.
    // A round that finds the delta empty returns at once; only rounds
    // that merged (the registry's merge counters moved) are timed.
    merger = std::thread([&] {
      modb::obs::Metrics& m = modb::obs::Metrics::Global();
      modb::obs::Counter* merges = m.counter("index.delta.merges");
      modb::obs::Counter* stale = m.counter("index.delta.merge_stale");
      while (!ingest_done.load()) {
        std::this_thread::sleep_for(kMergeInterval);
        const std::uint64_t before = merges->value() + stale->value();
        const Clock::time_point start = Clock::now();
        const bool ok = db->MergeLive(kLiveRelation).ok();
        const double us = double((Clock::now() - start).count()) / 1e3;
        if (ok && merges->value() + stale->value() != before) {
          merge_us.push_back(us);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (merger.joinable()) merger.join();
  out.requests.insert(out.requests.end(), mutations.begin(), mutations.end());
  out.merge_us = std::move(merge_us);
  for (const Tracer& t : tracers) AppendSpans(t, &out.spans);
  store.reset();
  std::remove(store_path.c_str());
  return out;
}

// The second live replay: a bare LiveRelation on its own store, so
// Ingest (memory) and Persist (the commit path) are timed apart.
Status ReplayStandalone(const Run& run, std::vector<double>* ingest_us,
                        std::vector<double>* persist_us) {
  const std::string path = run.args.work + "/standalone.store";
  std::remove(path.c_str());
  modb::VersionedSpillStore::Options so;
  so.device = modb::StoreDeviceKind::kFile;
  modb::Result<modb::VersionedSpillStore> store =
      modb::VersionedSpillStore::Create(path, so);
  MODB_RETURN_IF_ERROR(store.status());
  {
    modb::ingest::LiveRelation live(kLiveRelation);
    MODB_RETURN_IF_ERROR(live.AttachStore(&*store));
    for (std::size_t b = 0; b < run.acks.size(); ++b) {
      if (!run.acks[b].ok) continue;
      std::vector<modb::ingest::IngestFix> fixes;
      for (const MutationRequest::Fix& f : run.batches[b].fixes) {
        fixes.push_back({f.object_id, f.t, f.x, f.y});
      }
      const Clock::time_point t0 = Clock::now();
      MODB_RETURN_IF_ERROR(live.Ingest(fixes));
      const Clock::time_point t1 = Clock::now();
      MODB_RETURN_IF_ERROR(live.Persist());
      const Clock::time_point t2 = Clock::now();
      const bool measured = run.acks[b].due_ns >= run.window_start_ns &&
                            run.acks[b].due_ns < run.window_end_ns;
      if (measured) {
        ingest_us->push_back(double((t1 - t0).count()) / 1e3);
        persist_us->push_back(double((t2 - t1).count()) / 1e3);
      }
    }
  }
  std::remove(path.c_str());
  return Status::OK();
}

void PerLayerMetrics(const Run& run, const ReplayOut& rp, Report* report) {
  // Span checks and self times.
  TraceAnalysis an = Analyse(rp.spans);
  std::uint64_t traced = 0, within = 0, not_nested = 0;
  double self_sum = 0, total_sum = 0;
  // Overhead pairs by which pass ran first; averaging the two medians
  // cancels the second pass's warm caches.
  std::vector<double> untraced_us[kNumClasses], overhead[2];
  for (const Replayed& r : rp.requests) {
    if (!r.mutation && r.untraced_us >= 0) {
      untraced_us[int(r.klass)].push_back(r.untraced_us);
      if (r.traced_us >= 0) {
        overhead[r.traced_first].push_back((r.traced_us - r.untraced_us) /
                                           r.untraced_us);
      }
    }
    if (r.traced_us < 0) continue;
    auto it = an.requests.find(r.request);
    if (it == an.requests.end()) continue;
    ++traced;
    const double self_us = double(it->second.self_sum_ns) / 1e3;
    self_sum += self_us;
    total_sum += r.traced_us;
    if (!it->second.nested) ++not_nested;
    if (std::fabs(r.traced_us - self_us) <=
        kSpanTolShare * r.traced_us + kSpanTolUs) {
      ++within;
    }
  }
  report->Attempt(traced);
  if (not_nested > 0) {
    report->Fail(std::to_string(not_nested) +
                 " traced requests have spans that do not nest");
  }
  if (traced == 0 ||
      Ratio(double(within), double(traced)) < kSpanTolRequests) {
    report->Fail("span self times match the request total for only " +
                 std::to_string(within) + " of " + std::to_string(traced) +
                 " traced requests");
  }
  std::printf("perfbench: trace: %" PRIu64 " traced requests, %" PRIu64
              " within |total - sum(self)| <= %.0f%% + %.0f us; "
              "sum(self)/sum(total) = %.4f\n",
              traced, within, kSpanTolShare * 100, kSpanTolUs,
              Ratio(self_sum, total_sum));
  report->Set("trace.self_sum_share", Ratio(self_sum, total_sum), "ratio",
              "sum of span self times / sum of request totals");
  report->Set("trace.overhead_share",
              (Quantile(overhead[0], 0.5) + Quantile(overhead[1], 0.5)) / 2,
              "ratio",
              "(traced - untraced) / untraced of one request, n=" +
                  std::to_string(overhead[0].size() + overhead[1].size()));

  auto self_q = [&](const char* name, double q) {
    auto it = an.self_us.find(name);
    return it == an.self_us.end() ? 0.0 : Quantile(it->second, q);
  };
  // Query-side wire spans; mutations are covered by db.apply.
  std::vector<double> decode_us, encode_us;
  for (const Span& sp : rp.spans) {
    if (sp.request < kQueryIdBase) continue;
    const double us = double(sp.end_ns - sp.start_ns) / 1e3;
    if (std::strcmp(sp.name, "wire.decode_request") == 0) {
      decode_us.push_back(us);
    } else if (std::strcmp(sp.name, "wire.encode_reply") == 0) {
      encode_us.push_back(us);
    }
  }
  report->Set("wire.decode_request_us", Quantile(decode_us, 0.5), "us");
  report->Set("wire.encode_reply_us", Quantile(encode_us, 0.5), "us");
  report->Set("wire.reply_bytes", Mean(rp.reply_bytes), "B",
              "mean encoded query reply");
  report->Set("serve.admission_us.p99", self_q("serve.admission", 0.99), "us",
              "admission span self time");
  for (int k = 0; k < kNumClasses; ++k) {
    const std::string cls = KlassName(Klass(k));
    const Metric* e2e = report->Get(cls + "_p50_ms");
    const double inproc = Quantile(untraced_us[k], 0.5);
    report->Set("serve.transport_us." + cls,
                e2e != nullptr && !untraced_us[k].empty()
                    ? e2e->value * 1e3 - inproc
                    : 0,
                "us", "e2e p50 - untraced in-process p50");
    report->Set("db.run_us." + cls, Quantile(rp.db_run_us[k], 0.5), "us");
  }
  report->Set("db.plan_us", Quantile(rp.plan_us, 0.5), "us",
              "db.run - ExecStats root wall");
  report->Set("db.apply_us.p50", self_q("db.apply", 0.5), "us");
  report->Set("db.apply_us.p99", self_q("db.apply", 0.99), "us");
  report->Set("db.merge_live_us", Quantile(rp.merge_us, 0.5), "us",
              "n=" + std::to_string(rp.merge_us.size()));

  // ExecStats trees of the traced queries.
  std::vector<double> pipeline_us;
  double workers = 0, morsels = 0, stolen = 0, cand = 0, hits = 0;
  double chunk_busy = 0, chunk_capacity = 0;
  for (const modb::ExecStats& st : rp.stats) {
    pipeline_us.push_back(double(st.wall_ns) / 1e3);
    workers += double(st.workers);
    morsels += double(st.morsels);
    stolen += double(st.morsels_stolen);
    cand += double(st.index_candidates);
    hits += double(st.index_hits);
    double busy = 0;
    for (const modb::ExecStats& c : st.children) {
      if (c.op.rfind("chunk", 0) == 0) busy += double(c.wall_ns);
    }
    if (busy > 0) {
      chunk_busy += busy;
      chunk_capacity += double(st.workers) * double(st.wall_ns);
    }
  }
  const double nq = double(rp.stats.size());
  report->Set("exec.pipeline_us", Quantile(pipeline_us, 0.5), "us",
              "ExecStats root wall_ns");
  report->Set("exec.workers_per_query", Ratio(workers, nq), "count");
  report->Set("exec.morsels_per_query", Ratio(morsels, nq), "count");
  report->Set("exec.stolen_share", Ratio(stolen, morsels), "ratio");
  report->Set("exec.chunk_busy_share", Ratio(chunk_busy, chunk_capacity),
              "ratio", "0 when no chunk carries a wall time");
  report->Set("index.candidate_hit_ratio", Ratio(hits, cand), "ratio");

  // Registry deltas over the wire run's measured window.
  auto d = [&](const char* c) { return run.Delta(c); };
  report->Set("serve.errors", d("serve.errors"), "count");
  report->Set("serve.rejected", d("serve.rejected"), "count");
  report->Set("serve.timeouts", d("serve.timeouts"), "count");
  report->Set("exec.plan_cache_hit_ratio",
              Ratio(d("exec.plan_cache.hits"),
                    d("exec.plan_cache.hits") + d("exec.plan_cache.misses")),
              "ratio");
  report->Set("temporal.units_per_instant",
              Ratio(d("temporal.batch.units_scanned"),
                    d("temporal.batch.atinstant_instants") +
                        d("temporal.batch.present_instants")),
              "count");
  report->Set("temporal.gallop_share",
              Ratio(d("temporal.batch.sweep_gallop_searches"),
                    d("temporal.batch.sweep_gallop_searches") +
                        d("temporal.batch.sweep_cursor_hits")),
              "ratio");
  double joins = 0, queries = 0;
  for (const std::vector<QueryRecord>& recs : run.conns) {
    for (const QueryRecord& r : recs) {
      if (!r.ok || !run.InWindow(r.start_ns, r.end_ns)) continue;
      ++queries;
      if (run.spec->kinds[std::size_t(r.q.kind)].klass == Klass::kJoin) ++joins;
    }
  }
  report->Set("temporal.refinement_entries_per_join",
              Ratio(d("temporal.refinement.entries"), joins), "count");
  report->Set("index.node_visits_per_probe",
              Ratio(d("index.rtree3d.node_visits"), d("index.rtree3d.queries")),
              "count");
  report->Set("index.leaf_tests_per_hit",
              Ratio(d("index.rtree3d.leaf_entry_tests"),
                    d("index.rtree3d.leaf_hits")),
              "count");
  report->Set("index.merges", d("index.delta.merges"), "count");
  report->Set("index.merge_stale", d("index.delta.merge_stale"), "count");
  report->Set("ingest.dedup_hits", d("ingest.dedup_hits"), "count");
  const double batches = d("ingest.batches");
  report->Set("storage.page_writes_per_batch",
              Ratio(d("storage.file_device.page_writes"), batches), "count");
  report->Set("storage.commits_per_batch",
              Ratio(d("storage.recovery.commits"), batches), "count");
  report->Set("storage.reclaim_share",
              Ratio(d("storage.recovery.retired_reclaimed"),
                    d("storage.recovery.pages_retired")),
              "ratio");
  report->Set("storage.epoch_pins_per_query",
              run.spec->live ? Ratio(d("storage.recovery.epoch_pins"), queries)
                             : 0,
              "count");
  const double pool_access =
      d("storage.buffer_pool.hits") + d("storage.buffer_pool.misses");
  report->Set("storage.pool_hit_ratio",
              Ratio(d("storage.buffer_pool.hits"), pool_access), "ratio",
              pool_access > 0 ? "" : "absent: the pool saw no traffic");
  double user_bytes = 0;
  modb::MutationResult last;
  for (std::size_t b = 0; b < run.acks.size(); ++b) {
    if (!run.acks[b].ok) continue;
    last = run.acks[b].ack;
    if (run.acks[b].due_ns >= run.window_start_ns &&
        run.acks[b].due_ns < run.window_end_ns) {
      user_bytes += double(BatchUserBytes(run.batches[b]));
    }
  }
  report->Set("storage.write_amp",
              Ratio(d("storage.file_device.page_writes") * 4096.0, user_bytes),
              "ratio", "device bytes written / user bytes acked");
  report->Set("index.delta_entries_end", double(last.delta_entries), "count");
  report->Set("index.base_entries_end", double(last.base_entries), "count");
  report->Set("ingest.mem_units_end", double(last.mem_units), "count");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--modbd") {
      a->modbd = v;
    } else if (flag == "--work") {
      a->work = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->modbd.empty() && !a->work.empty() &&
         a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: modb_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --modbd PATH --work DIR\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "perfbench: unknown workload '%s' (known:%s)\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  ::mkdir(args.work.c_str(), 0755);

  Run run;
  run.spec = spec;
  run.args = args;
  // One driver CPU per query connection; the live writer, asleep
  // between batches, shares them, which leaves modbd a third CPU for
  // the commit and merge work that runs beside the live queries.
  run.cpus = PlanCpus(spec->query_connections);
  run.num_threads =
      spec->num_threads > 0 ? spec->num_threads : int(run.cpus.server.size());
  if (Status s = PinCurrentThread(run.cpus.driver); !s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              spec->name, args.seed, args.seconds, int(args.trace));
  std::printf("perfbench: nproc=%zu driver_cpus=%s modbd_cpus=%s%s "
              "num_threads=%d loadavg=%s\n",
              run.cpus.all.size(), CpuList(run.cpus.driver).c_str(),
              CpuList(run.cpus.server).c_str(),
              run.cpus.disjoint ? "" : " (shared)", run.num_threads,
              LoadAverage().c_str());

  Report report;
  {
    modb::Result<Modbd> server = RunLoad(&run, &report);
    if (!server.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", server.status().ToString().c_str());
      return 1;
    }
    if (spec->live) {
      VerifyLive(&run, server->port(), &report);
      struct stat st;
      if (::stat(StorePath(args).c_str(), &st) == 0) {
        run.store_bytes = double(st.st_size);
      }
    }
    if (Status s = server->Stop(); !s.ok()) report.Fail(s.ToString());
  }
  std::remove(StorePath(args).c_str());
  if (!run.first_error.empty()) {
    std::fprintf(stderr, "perfbench: first error: %s\n",
                 run.first_error.c_str());
  }
  EndToEndMetrics(run, &report);

  // Everything after the wire run executes on the CPUs modbd held.
  if (Status s = PinCurrentThread(run.cpus.server); !s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  modb::ThreadPool pool;
  if (!spec->live) VerifyResident(run, &pool, &report);

  if (args.trace) {
    modb::Result<ReplayOut> rp = Replay(run, &pool);
    if (!rp.ok()) {
      std::fprintf(stderr, "perfbench: replay: %s\n",
                   rp.status().ToString().c_str());
      return 1;
    }
    if (rp->mismatches > 0 || rp->errors > 0) {
      report.Fail(std::to_string(rp->mismatches) + " replay mismatches, " +
                  std::to_string(rp->errors) + " replay errors");
    }
    std::vector<double> ingest_us, persist_us;
    if (spec->live) {
      if (Status s = ReplayStandalone(run, &ingest_us, &persist_us); !s.ok()) {
        report.Fail("standalone replay: " + s.ToString());
      }
    }
    report.Set("ingest.ingest_us.p50", Quantile(ingest_us, 0.5), "us");
    report.Set("ingest.ingest_us.p99", Quantile(ingest_us, 0.99), "us");
    report.Set("storage.persist_us.p50", Quantile(persist_us, 0.5), "us");
    report.Set("storage.persist_us.p99", Quantile(persist_us, 0.99), "us");
    PerLayerMetrics(run, *rp, &report);
    const std::string spans_path =
        args.work + "/spans_" + spec->name + ".tsv";
    if (!WriteSpans(spans_path, rp->spans)) {
      report.Fail("writing " + spans_path);
    }
    std::printf("perfbench: wrote %zu spans to %s\n", rp->spans.size(),
                spans_path.c_str());
  }

  report.PrintAll();
  const double failed_share =
      Ratio(double(report.failed()), double(report.attempted()));
  std::printf("metric %-40s %16.6f %-6s attempted=%" PRIu64 " failed=%" PRIu64
              "\n",
              "failed_share", failed_share, "ratio", report.attempted(),
              report.failed());
  report.PrintJson();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

#include "workloads.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

using modb::FilterSpec;
using modb::Instant;
using modb::QueryRequest;

const char* const kAirlines[] = {"Lufthansa", "Alitalia", "KLM", "Iberia",
                                 "Sabena"};

// The planes relation modbd generates: departures in [0, 24], flights
// of up to ~18 time units over a 10000 x 10000 world.
constexpr double kPlanesTimeEnd = 40;
constexpr double kPlanesExtent = 10000;

const std::vector<WorkloadSpec>& Specs() {
  // Weights keep every latency median inside one kind's distribution
  // rather than on the edge between two, where it would jump between
  // runs: e.g. q1_select outweighs project, atinstant outweighs
  // present, and on live_ingest the pooled median falls inside
  // live_window (the two cheap kinds make 40% of the mix).
  static const std::vector<WorkloadSpec> specs = {
      {"resident_small", 64, 2, 1, false, 8,
       {{"q1_select", Klass::kSelect, 2},
        {"project", Klass::kSelect, 1},
        {"q2_index_join", Klass::kJoin, 2},
        {"atinstant_batch", Klass::kBatch, 2},
        {"present_batch", Klass::kBatch, 1},
        {"window_aggregate", Klass::kWindow, 2}}},
      {"resident_heavy", 1024, 1, 0, false, 4,
       {{"q1_select", Klass::kSelect, 2},
        {"project", Klass::kSelect, 1},
        {"q2_index_join", Klass::kJoin, 6},
        {"atinstant_batch", Klass::kBatch, 6},
        {"present_batch", Klass::kBatch, 1},
        {"window_aggregate", Klass::kWindow, 4}}},
      {"live_ingest", 64, 1, 1, true, 1,
       {{"live_select", Klass::kSelect, 1},
        {"live_atinstant", Klass::kBatch, 1},
        {"live_index_join", Klass::kJoin, 1},
        {"live_window", Klass::kWindow, 2}}},
  };
  return specs;
}

// The kind of request `index` on connection `conn`, and how many
// requests of that kind the connection sent before it. Requests come
// in cycles of sum(weights) slots holding each kind exactly `weight`
// times, shuffled per cycle, so every run has the same kind mix and
// only the order and the parameters vary with the seed.
struct Slot {
  int kind = 0;
  std::uint64_t occurrence = 0;
};

Slot DrawKind(const WorkloadSpec& spec, std::uint64_t seed, int conn,
              std::uint64_t index) {
  std::vector<int> slots;
  for (std::size_t k = 0; k < spec.kinds.size(); ++k) {
    slots.insert(slots.end(), std::size_t(spec.kinds[k].weight), int(k));
  }
  const std::uint64_t cycle = index / slots.size();
  Rng rng(StreamKey(seed, 0x5107 + std::uint64_t(conn), cycle));
  for (std::size_t i = slots.size() - 1; i > 0; --i) {
    std::swap(slots[i], slots[std::size_t(rng.Int(0, std::int64_t(i)))]);
  }
  const std::size_t pos = index % slots.size();
  Slot slot;
  slot.kind = slots[pos];
  slot.occurrence =
      cycle * std::uint64_t(spec.kinds[std::size_t(slot.kind)].weight) +
      std::uint64_t(std::count(
          slots.begin(), slots.begin() + std::ptrdiff_t(pos), slot.kind));
  return slot;
}

// A request's parameters, drawn stratified: the n-th request of a kind
// on a connection takes its d-th parameter from stratum perm[n %
// kStrata] of [0, 1), jittered within it, where perm is a seeded
// permutation renewed every kStrata requests and independent per d.
// Every kStrata consecutive requests of a kind thus cover each stratum
// of every parameter once (a Latin hypercube): no two requests repeat,
// yet the cost mix of a run hardly varies with the seed, so a median
// does not jump between the modes of, say, the five airlines.
class Params {
 public:
  static constexpr int kStrata = 20;

  Params(std::uint64_t seed, int conn, const Slot& slot, Rng* jitter)
      : seed_(seed), conn_(conn), slot_(slot), jitter_(jitter) {}

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Next(); }
  /// Uniform integer in [lo, hi].
  std::int64_t Int(std::int64_t lo, std::int64_t hi) {
    return std::min(hi, lo + std::int64_t(Next() * double(hi - lo + 1)));
  }

 private:
  double Next() {
    int perm[kStrata];
    for (int i = 0; i < kStrata; ++i) perm[i] = i;
    Rng rng(StreamKey(seed_, 0x7000 + std::uint64_t(dim_++),
                      (std::uint64_t(conn_) << 40) ^
                          (std::uint64_t(slot_.kind) << 32) ^
                          (slot_.occurrence / kStrata)));
    for (int i = kStrata - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Int(0, i)]);
    }
    const int stratum = perm[slot_.occurrence % kStrata];
    return (double(stratum) + jitter_->Uniform(0, 1)) / kStrata;
  }

  std::uint64_t seed_;
  int conn_;
  Slot slot_;
  Rng* jitter_;
  int dim_ = 0;
};

// An ascending grid of n instants starting in [0, 6) and ending near
// the end of the planes' time range.
std::vector<Instant> PlanesGrid(Params* draw, std::int64_t n) {
  const double start = draw->Uniform(0, 6);
  const double step = (kPlanesTimeEnd - 4 - start) / double(n);
  std::vector<Instant> ts;
  for (std::int64_t i = 0; i < n; ++i) ts.push_back(start + double(i) * step);
  return ts;
}

void RandomRect(Params* draw, double lo, double hi, double half_lo,
                double half_hi, QueryRequest* q) {
  const double cx = draw->Uniform(lo, hi);
  const double cy = draw->Uniform(lo, hi);
  const double h = draw->Uniform(half_lo, half_hi);
  q->min_x = cx - h;
  q->max_x = cx + h;
  q->min_y = cy - h;
  q->max_y = cy + h;
}

void ResidentQuery(const WorkloadSpec& spec, const std::string& kind,
                   Params* draw, QueryRequest* q) {
  const bool heavy = spec.flights > 256;
  q->relation = "planes";
  q->attr = "flight";
  if (kind == "q1_select") {
    q->kind = QueryRequest::Kind::kSelect;
    q->filters.push_back({FilterSpec::Kind::kStringEquals, "airline",
                          kAirlines[draw->Int(0, 4)], 0, 0, 0});
    q->filters.push_back({FilterSpec::Kind::kTrajectoryLengthAtLeast,
                          "flight", "", draw->Uniform(2000, 9000), 0, 0});
  } else if (kind == "project") {
    q->kind = QueryRequest::Kind::kProject;
    q->filters.push_back({FilterSpec::Kind::kPresentAt, "flight", "", 0,
                          draw->Uniform(0, kPlanesTimeEnd - 4), 0});
    q->project = {"airline", "id"};
  } else if (kind == "q2_index_join") {
    q->kind = QueryRequest::Kind::kIndexJoin;
    q->join_relation = "planes";
    q->join_attr = "flight";
    q->distance = draw->Uniform(10, 100);
    q->distinct_pairs = true;
    // On the large fleet the outer side is one airline's planes (Q2
    // for "which Lufthansa planes came close to any plane"), which
    // keeps a join near 20-40 ms, so a run still collects enough
    // samples for a p99.
    if (heavy) {
      q->filters.push_back({FilterSpec::Kind::kStringEquals, "airline",
                            kAirlines[draw->Int(0, 4)], 0, 0, 0});
    }
  } else if (kind == "atinstant_batch" || kind == "present_batch") {
    q->kind = kind == "atinstant_batch" ? QueryRequest::Kind::kAtInstantBatch
                                        : QueryRequest::Kind::kPresentBatch;
    q->instants = heavy ? PlanesGrid(draw, draw->Int(64, 128))
                        : PlanesGrid(draw, draw->Int(16, 64));
  } else {  // window_aggregate
    q->kind = QueryRequest::Kind::kWindowAggregate;
    q->window_t0 = draw->Uniform(0, 12);
    q->window_t1 = q->window_t0 + draw->Uniform(12, 24);
    q->window_width = draw->Uniform(0.5, 2);
    q->window_step = q->window_width * (draw->Int(0, 1) == 0 ? 0.5 : 1.0);
    RandomRect(draw, 0.2 * kPlanesExtent, 0.8 * kPlanesExtent,
               0.05 * kPlanesExtent, 0.25 * kPlanesExtent, q);
  }
}

// Live kinds aim at the data ingested so far: windows end at the
// newest acknowledged fix time `frontier`.
void LiveQuery(const std::string& kind, Params* draw, double frontier,
               QueryRequest* q) {
  const double f = std::max(frontier, 0.0);
  q->relation = kLiveRelation;
  q->attr = "trail";
  if (kind == "live_select") {
    // One device's trail, and the ids of every device seen since a
    // recent instant: the filtered projections a tracker UI issues.
    q->kind = QueryRequest::Kind::kProject;
    q->filters.push_back({FilterSpec::Kind::kDeftimeIntersects, "trail", "",
                          0, std::max(0.0, f - draw->Uniform(1, 32)), f});
    char id[32];
    std::snprintf(id, sizeof id, "dev%03d",
                  int(draw->Int(0, kLiveObjects - 1)));
    q->filters.push_back({FilterSpec::Kind::kStringEquals, "id", id, 0, 0, 0});
    q->project = {"id", "trail"};
  } else if (kind == "live_atinstant") {
    q->kind = QueryRequest::Kind::kAtInstantBatch;
    const double span = draw->Uniform(8, 64);
    const std::int64_t n = draw->Int(8, 32);
    const double start = std::max(0.0, f - span);
    for (std::int64_t i = 0; i < n; ++i) {
      q->instants.push_back(start + (f - start) * double(i) / double(n));
    }
  } else if (kind == "live_index_join") {
    q->kind = QueryRequest::Kind::kIndexJoin;
    q->join_relation = kLiveRelation;
    q->join_attr = "trail";
    q->distance = draw->Uniform(5, 40);
    q->distinct_pairs = true;
  } else {  // live_window
    q->kind = QueryRequest::Kind::kWindowAggregate;
    q->window_t0 = std::max(0.0, f - draw->Uniform(16, 64));
    q->window_t1 = f + 1;
    q->window_width = draw->Uniform(2, 8);
    q->window_step = q->window_width / 2;
    RandomRect(draw, 0, 3000, 200, 1200, q);
  }
}

}  // namespace

const char* KlassName(Klass k) {
  switch (k) {
    case Klass::kSelect:
      return "select";
    case Klass::kJoin:
      return "join";
    case Klass::kBatch:
      return "batch";
    case Klass::kWindow:
      return "window";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.emplace_back(s.name);
  return names;
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * double(Next() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::Int(std::int64_t lo, std::int64_t hi) {
  return lo + std::int64_t(Next() % std::uint64_t(hi - lo + 1));
}

std::uint64_t StreamKey(std::uint64_t seed, std::uint64_t lane,
                        std::uint64_t index) {
  Rng r(seed * 0x100000001b3ULL ^ (lane << 48) ^ index);
  r.Next();
  return r.Next();
}

GeneratedQuery MakeQuery(const WorkloadSpec& spec, std::uint64_t seed,
                         int conn, std::uint64_t index, int num_threads,
                         double frontier) {
  Rng jitter(StreamKey(seed, std::uint64_t(conn) + 1, index));
  const Slot slot = DrawKind(spec, seed, conn, index);
  Params params(seed, conn, slot, &jitter);
  GeneratedQuery g;
  g.kind = slot.kind;
  const std::string kind = spec.kinds[std::size_t(g.kind)].name;
  if (spec.live) {
    LiveQuery(kind, &params, frontier, &g.request);
  } else {
    ResidentQuery(spec, kind, &params, &g.request);
  }
  g.request.num_threads = num_threads;
  return g;
}

std::vector<modb::MutationRequest> MakeBatches(std::uint64_t seed,
                                               std::size_t count) {
  std::vector<Rng> walk;
  std::vector<double> x, y;
  std::vector<std::string> ids;
  for (int o = 0; o < kLiveObjects; ++o) {
    walk.emplace_back(StreamKey(seed, 1000 + std::uint64_t(o), 0));
    // An 8 x 8 grid of home positions 300 apart.
    x.push_back(double(o % 8) * 300 + walk.back().Uniform(-50, 50));
    y.push_back(double(o / 8) * 300 + walk.back().Uniform(-50, 50));
    char id[32];
    std::snprintf(id, sizeof id, "dev%03d", o);
    ids.emplace_back(id);
  }
  std::vector<modb::MutationRequest> batches(count);
  for (std::size_t b = 0; b < count; ++b) {
    modb::MutationRequest& m = batches[b];
    m.kind = modb::MutationRequest::Kind::kIngest;
    m.relation = kLiveRelation;
    m.client_id = "perfbench";
    m.batch_seq = b + 1;
    for (int o = 0; o < kLiveObjects; ++o) {
      x[std::size_t(o)] += walk[std::size_t(o)].Uniform(-10, 10);
      y[std::size_t(o)] += walk[std::size_t(o)].Uniform(-10, 10);
      m.fixes.push_back({ids[std::size_t(o)], Instant(b), x[std::size_t(o)],
                         y[std::size_t(o)]});
    }
  }
  return batches;
}

std::uint64_t BatchUserBytes(const modb::MutationRequest& batch) {
  std::uint64_t bytes = 0;
  for (const modb::MutationRequest::Fix& f : batch.fixes) {
    bytes += f.object_id.size() + 3 * sizeof(double);
  }
  return bytes;
}

}  // namespace perfbench

// The benchmark's three workloads and their seeded request generators.
//
// Every request the benchmark sends is drawn from a SplitMix64 stream
// keyed by (workload seed, connection, request index), so the same seed
// gives the same stream and no two requests of a run are byte-identical.
// modbd itself only ever sees the generated requests and its fixed
// --flights/--seed; the planes relation does not vary with the seed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "db/modb.h"

namespace perfbench {

/// The latency classes the end-to-end metrics are reported by.
enum class Klass : int { kSelect = 0, kJoin = 1, kBatch = 2, kWindow = 3 };
inline constexpr int kNumClasses = 4;
const char* KlassName(Klass k);

struct KindSpec {
  const char* name;
  Klass klass;
  /// Relative draw weight in the workload's mix.
  int weight;
};

struct WorkloadSpec {
  const char* name;
  /// modbd --flights (the resident planes relation).
  int flights;
  /// Closed-loop query connections.
  int query_connections;
  /// Query num_threads; 0 = the number of CPUs modbd holds.
  int num_threads;
  /// live_ingest: modbd runs --live/--store and one open-loop writer
  /// connection streams keyed fix batches.
  bool live;
  /// Byte-compare one in this many replies (seeded) against local runs.
  int verify_one_in;
  std::vector<KindSpec> kinds;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

/// The live fleet: kLiveObjects devices, one fix each per batch, so
/// batch b carries every device's fix at t = b.
inline constexpr int kLiveObjects = 64;
inline constexpr int kLiveBatchFixes = kLiveObjects;
/// Open-loop ingest rate, well below the ~11k-15k fixes/s a closed-loop
/// writer reaches, so the relation grows at the same pace on every
/// commit that is compared.
inline constexpr double kLiveFixesPerSecond = 2048;
inline constexpr const char* kLiveRelation = "fleet";

/// SplitMix64: the one random source of the benchmark.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next();
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [lo, hi].
  std::int64_t Int(std::int64_t lo, std::int64_t hi);

 private:
  std::uint64_t s_;
};

/// A stream key: distinct for every (seed, lane, index) triple.
std::uint64_t StreamKey(std::uint64_t seed, std::uint64_t lane,
                        std::uint64_t index);

struct GeneratedQuery {
  modb::QueryRequest request;
  /// Index into WorkloadSpec::kinds.
  int kind = 0;
};

/// Request `index` of connection `conn`. `frontier` is the newest
/// acknowledged fix time (live kinds aim their windows at it; ignored
/// by the resident kinds).
GeneratedQuery MakeQuery(const WorkloadSpec& spec, std::uint64_t seed,
                         int conn, std::uint64_t index, int num_threads,
                         double frontier);

/// The first `count` live ingest batches. Batch b carries every
/// device's fix at t = b (a seeded random walk per device) and is keyed
/// (client_id, batch_seq = b + 1), so a retry could never double-apply.
std::vector<modb::MutationRequest> MakeBatches(std::uint64_t seed,
                                               std::size_t count);

/// Bytes of user payload in a batch: per fix, the id plus t, x, y.
std::uint64_t BatchUserBytes(const modb::MutationRequest& batch);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// In-memory spans for the traced replay. Each replay thread owns one
// Tracer, so recording a span is two clock reads and a vector append;
// the spans are analysed and written out only after the replay ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  /// Request id; every span of one request shares it.
  std::uint64_t request = 0;
  /// Index of the parent span in the same Tracer, -1 at top level.
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  /// Opens a span and returns its id.
  int Begin(const char* name, std::uint64_t request, int parent = -1) {
    spans_.push_back({name, request, parent, Now(), 0});
    return int(spans_.size()) - 1;
  }
  void End(int id) { spans_[std::size_t(id)].end_ns = Now(); }
  /// Records a span measured elsewhere (e.g. an ExecStats node).
  int Add(const char* name, std::uint64_t request, int parent,
          std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, request, parent, start_ns, end_ns});
    return int(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// The per-request verdict of the span checks.
struct RequestCheck {
  /// Every span lies inside its parent and siblings do not overlap.
  bool nested = true;
  /// Sum of the request's span self times, ns.
  std::int64_t self_sum_ns = 0;
};

/// Self time of every span (duration minus the union of its children)
/// keyed by span name, plus the per-request checks. `spans` may mix
/// requests; parent indices refer to the same vector.
struct TraceAnalysis {
  std::map<std::string, std::vector<double>> self_us;
  std::map<std::uint64_t, RequestCheck> requests;
};
TraceAnalysis Analyse(const std::vector<Span>& spans);

/// Writes one line per span: request, name, parent, start_ns, end_ns.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

#include "trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

TraceAnalysis Analyse(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[std::size_t(spans[i].parent)].push_back(int(i));
    }
  }
  TraceAnalysis out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    RequestCheck& check = out.requests[s.request];
    if (s.end_ns < s.start_ns) check.nested = false;
    std::vector<const Span*> kids;
    for (int c : children[i]) kids.push_back(&spans[std::size_t(c)]);
    std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    std::int64_t covered = 0;
    std::int64_t prev_end = s.start_ns;
    for (const Span* k : kids) {
      if (k->request != s.request || k->start_ns < s.start_ns ||
          k->end_ns > s.end_ns || k->start_ns < prev_end) {
        check.nested = false;
      }
      const std::int64_t lo = std::max(k->start_ns, prev_end);
      const std::int64_t hi = std::min(k->end_ns, s.end_ns);
      if (hi > lo) covered += hi - lo;
      prev_end = std::max(prev_end, k->end_ns);
    }
    const std::int64_t self = (s.end_ns - s.start_ns) - covered;
    check.self_sum_ns += self;
    out.self_us[s.name].push_back(double(self) / 1e3);
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "request\tname\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.request << '\t' << s.name << '\t' << s.parent << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return bool(out);
}

}  // namespace perfbench

// In-memory span recorder for the traced pass. Spans are recorded by the
// harness around its calls into each module's public functions (nothing is
// traced inside the library) and written out once, when the run ends.
#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;  // 0 = root
    std::string name;     // "<layer>.<call>", e.g. "find_lb.FindLowerBounds"
    double start = 0;     // seconds, steady clock
    double end = 0;
    uint64_t request = 0;  // shared by the spans of one request/operation
    double duration() const { return end - start; }
  };

  /// Opens a span as a child of the innermost open span. Spans nest
  /// strictly; the traced passes are single-threaded.
  uint32_t Begin(const std::string& name, uint64_t request = 0);
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span with this exact name, in record order.
  std::vector<double> Durations(const std::string& name) const;
  double Total(const std::string& name) const;
  /// Self time (duration minus the time its child spans cover) summed over
  /// the spans of one layer, i.e. names starting with "<layer>.".
  double LayerSelf(const std::string& layer) const;

  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_

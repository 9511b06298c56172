// Benchmark-side tracing: spans around each call the benchmark makes into a
// layer's public API. Spans live in memory (one buffer per client thread)
// and are written out when the run ends; nothing inside the program is
// instrumented.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string detail;  // operator text for executor spans, else empty
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// False for executor operator spans taken from EXPLAIN ANALYZE: those
  /// carry only a duration, so the benchmark lays them out back to back
  /// inside their parent (see AddLaidOut).
  bool measured = true;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// One client thread's span buffer. Span ids are unique across buffers
/// because each buffer draws from its own id range.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t buffer_index)
      : next_id_((uint64_t{buffer_index} << 40) + 1) {}

  /// Opens a span now and returns its id.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  void End(uint64_t id);

  /// Appends a span whose start is not known, only its duration: it starts
  /// where the previous laid-out child of `parent` ended (or at
  /// `parent_start_ns`).
  uint64_t AddLaidOut(const std::string& name, const std::string& detail,
                      uint64_t parent,
                      uint64_t request, uint64_t parent_start_ns,
                      uint64_t duration_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indexes of spans without an end yet
  uint64_t next_id_;
  uint64_t layout_parent_ = 0;
  uint64_t layout_cursor_ = 0;
};

/// RAII span on a buffer; a null buffer makes it a no-op (untraced runs).
class ScopedTrace {
 public:
  ScopedTrace(SpanBuffer* buffer, const char* name, uint64_t parent,
              uint64_t request)
      : buffer_(buffer),
        id_(buffer ? buffer->Begin(name, parent, request) : 0) {}
  ~ScopedTrace() {
    if (buffer_ != nullptr) buffer_->End(id_);
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  uint64_t id_;
};

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover. Indexed like the concatenation of `buffers`.
std::vector<uint64_t> SelfTimes(const std::vector<const SpanBuffer*>& buffers);

/// Self times grouped by span name.
std::map<std::string, std::vector<uint64_t>> SelfTimesByName(
    const std::vector<const SpanBuffer*>& buffers);

/// Writes every span as one JSON object per line (name, detail, id, parent,
/// request, start_ns, end_ns, self_ns, measured). Returns false on I/O error.
bool WriteSpans(const std::vector<const SpanBuffer*>& buffers,
                const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_

#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common.h"
#include "json/json_parser.h"

namespace perfbench {

uint64_t SpanBuffer::Begin(const char* name, uint64_t parent,
                           uint64_t request) {
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNanos();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanBuffer::End(uint64_t id) {
  const uint64_t now = NowNanos();
  // Spans close in LIFO order, so the match is almost always the last one.
  for (size_t i = open_.size(); i-- > 0;) {
    Span& span = spans_[open_[i]];
    if (span.id != id) continue;
    span.end_ns = now;
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

uint64_t SpanBuffer::AddLaidOut(const std::string& name,
                                const std::string& detail, uint64_t parent,
                                uint64_t request, uint64_t parent_start_ns,
                                uint64_t duration_ns) {
  if (layout_parent_ != parent) {
    layout_parent_ = parent;
    layout_cursor_ = parent_start_ns;
  }
  Span span;
  span.name = name;
  span.detail = detail;
  span.id = next_id_++;
  span.parent = parent;
  span.request = request;
  span.start_ns = layout_cursor_;
  span.end_ns = layout_cursor_ + duration_ns;
  span.measured = false;
  layout_cursor_ = span.end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<uint64_t> SelfTimes(const std::vector<const SpanBuffer*>& buffers) {
  std::vector<const Span*> all;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) all.push_back(&s);
  }
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) index[all[i]->id] = i;

  // Children's intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> covered(all.size());
  for (const Span* s : all) {
    if (s->parent == 0) continue;
    auto it = index.find(s->parent);
    if (it == index.end()) continue;
    const Span* p = all[it->second];
    const uint64_t lo = std::max(s->start_ns, p->start_ns);
    const uint64_t hi = std::min(s->end_ns, p->end_ns);
    if (lo < hi) covered[it->second].push_back({lo, hi});
  }

  std::vector<uint64_t> self(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    uint64_t union_ns = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    const uint64_t d = all[i]->duration_ns();
    self[i] = d > union_ns ? d - union_ns : 0;
  }
  return self;
}

std::map<std::string, std::vector<uint64_t>> SelfTimesByName(
    const std::vector<const SpanBuffer*>& buffers) {
  const std::vector<uint64_t> self = SelfTimes(buffers);
  std::map<std::string, std::vector<uint64_t>> by_name;
  size_t i = 0;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) by_name[s.name].push_back(self[i++]);
  }
  return by_name;
}

bool WriteSpans(const std::vector<const SpanBuffer*>& buffers,
                const std::string& path) {
  using sqlgraph::json::JsonValue;
  const std::vector<uint64_t> self = SelfTimes(buffers);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto number = [](uint64_t v) { return JsonValue(static_cast<int64_t>(v)); };
  size_t i = 0;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      JsonValue span = JsonValue::Object();
      span.Set("name", s.name);
      span.Set("detail", s.detail);
      span.Set("id", number(s.id));
      span.Set("parent", number(s.parent));
      span.Set("request", number(s.request));
      span.Set("start_ns", number(s.start_ns));
      span.Set("end_ns", number(s.end_ns));
      span.Set("self_ns", number(self[i++]));
      span.Set("measured", s.measured);
      const std::string line = sqlgraph::json::Write(span) + "\n";
      std::fwrite(line.data(), 1, line.size(), f);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

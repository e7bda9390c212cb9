// In-memory span recorder for the traced benchmark run.
//
// A span is one call across a layer boundary, recorded from the
// benchmark's side of the call: name ("<layer>.<op>"), start and end
// on the steady clock, the enclosing span on the same thread, and the
// request it serves (0 = none). Spans stay in memory while the run
// measures and are written out once at the end, so recording costs a
// clock read and a vector append per boundary. When the recorder is
// disabled a ScopedSpan is one branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t NowNs();

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder's span list
  std::uint64_t request = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Returns the new span's index; `parent` is the calling thread's
  // innermost open span.
  std::int32_t Begin(const char* name, std::uint64_t request);
  void End(std::int32_t index);

  std::size_t size() const;

  // Self time per layer (the name up to the first '.'): each span's
  // duration minus the time its child spans cover, summed by layer.
  std::map<std::string, double> SelfMsByLayer() const;

  // One JSON object per line: name, start_ns, end_ns, parent, request.
  void WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0) {
    SpanRecorder& r = SpanRecorder::Get();
    if (r.enabled()) index_ = r.Begin(name, request);
  }
  ~ScopedSpan() {
    if (index_ >= 0) SpanRecorder::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_ = -1;
};

}  // namespace perfbench

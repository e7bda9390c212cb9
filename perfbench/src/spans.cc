#include "spans.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {
namespace {

thread_local std::int32_t t_open = -1;

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

std::int32_t SpanRecorder::Begin(const char* name, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0, t_open, request});
  t_open = index;
  return index;
}

void SpanRecorder::End(std::int32_t index) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = now;
  t_open = spans_[index].parent;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanRecorder::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] +=
        (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) / 1e6;
  }
  return out;
}

void SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}\n";
  }
}

}  // namespace perfbench

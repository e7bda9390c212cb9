// The benchmark program: sets a workload up, measures it, checks its
// outputs and prints one JSON result line last.
//
//   perfbench --workload campaign|offline|serve --seed N
//             --seconds S --trace 0|1 --dcrm PATH --out-dir DIR
//             [--rev REV]
//
// Normally started by run.py, which builds this binary and the `dcrm`
// CLI first. With --trace 0 the result carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, measured with the
// span recorder on.
#include <malloc.h>

#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "spans.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up runs this many times before the timed loop and this many
// after it; setup_s is the median of all of them. The host's slow
// stretches last seconds, so set-ups at both ends of the run rarely
// all fall into one.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 2;

// The layers spans are recorded for, in report order.
const char* const kLayers[] = {"bench", "core",     "exec",  "mem",    "trace",
                               "sim",   "analysis", "fault", "service"};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::unique_ptr<Workload> MakeWorkload(const Options& opts) {
  if (opts.workload == "campaign") return MakeCampaignWorkload(opts);
  if (opts.workload == "offline") return MakeOfflineWorkload(opts);
  if (opts.workload == "serve") return MakeServeWorkload(opts);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

int Run(const Options& opts, const std::string& rev) {
  std::filesystem::create_directories(opts.out_dir);
  auto workload = MakeWorkload(opts);
  RunResult res;
  SpanRecorder& rec = SpanRecorder::Get();

  std::vector<double> setup_s;
  auto set_up = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const std::int64_t t = NowNs();
      workload->Setup();
      setup_s.push_back(MillisSince(t) / 1000.0);
      Host().Sample();
    }
  };
  set_up(kSetupsBefore);

  if (!opts.trace) {
    {
      ScopedSpan span("bench.measure");
      workload->Measure(opts.seconds, res);
    }
    set_up(kSetupsAfter);
  } else {
    // The untraced half gives the reference for the tracing overhead;
    // the traced half, the set-up before it and the layer sweep after
    // it are recorded as spans.
    RunResult untraced;
    workload->Measure(opts.seconds / 2, untraced);
    rec.set_enabled(true);
    {
      ScopedSpan span("bench.setup");
      workload->Setup();
    }
    {
      ScopedSpan span("bench.measure");
      workload->Measure(opts.seconds / 2, res);
    }
    MeasureLayers(opts, res);
    rec.set_enabled(false);
    const double base = untraced.e2e["throughput_per_s"].value;
    res.layers["bench.tracing_overhead_pct"] = {
        100.0 * (base - res.e2e["throughput_per_s"].value) / base, "%", 2};
    res.layers["bench.spans"] = {static_cast<double>(rec.size()), "count", 1};
    const auto self = rec.SelfMsByLayer();
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      res.layers[std::string("self_ms.") + layer] = {
          it == self.end() ? 0.0 : it->second, "ms", rec.size()};
    }
    for (auto& f : untraced.check_failures) res.check_failures.push_back(f);
    res.attempted += untraced.attempted;
    for (const auto& [name, m] : untraced.e2e) {
      std::cout << "untraced " << name << " " << Number(m.value) << " "
                << m.unit << "\n";
    }
    const std::string spans = opts.out_dir + "/spans-" + opts.workload +
                              "-seed" + std::to_string(opts.seed) + ".jsonl";
    rec.WriteJsonLines(spans);
    std::cout << "spans written to " << spans << "\n";
  }

  const double slowdown = Host().Slowdown();
  std::cout << "host slowdown " << Number(slowdown) << " over "
            << Host().size() << " reference samples\n";
  for (auto& [name, m] : res.e2e) {
    std::cout << "raw " << name << " " << Number(m.value) << " " << m.unit
              << "\n";
    if (m.scale == Scale::kTime) m.value /= slowdown;
    if (m.scale == Scale::kRate) m.value *= slowdown;
  }
  // Set-up time is reported as measured, not scaled.
  res.e2e["setup_s"] = {Median(setup_s), "s", setup_s.size()};
  res.failed += res.check_failures.size();
  res.attempted = std::max<std::uint64_t>(res.attempted, 1);
  res.e2e["peak_rss_mb"] = {PeakRssMb(), "MB", 1};
  res.e2e["ok_ratio"] = {
      1.0 - static_cast<double>(res.failed) / static_cast<double>(res.attempted),
      "ratio", res.attempted};

  for (const std::string& f : res.check_failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  Digest all;
  for (const auto& [name, d] : res.digests) {
    std::cout << "digest " << name << " " << std::hex << std::setw(16)
              << std::setfill('0') << d << std::dec << std::setfill(' ')
              << "\n";
    all.Add(d);
  }
  std::cout << "digest all " << std::hex << std::setw(16) << std::setfill('0')
            << all.value() << std::dec << std::setfill(' ') << "\n";
  for (const auto& [name, m] : res.e2e) {
    std::cout << "metric " << name << " " << Number(m.value) << " " << m.unit
              << " (n=" << m.samples << ")\n";
  }
  if (opts.trace) {
    for (const auto& [name, m] : res.layers) {
      std::cout << "layer " << name << " " << Number(m.value) << " " << m.unit
                << " (n=" << m.samples << ")\n";
    }
  }
  const std::string meta =
      "{\"workload\": " + JsonString(opts.workload) +
      ", \"seed\": " + std::to_string(opts.seed) +
      ", \"seconds\": " + Number(opts.seconds) +
      ", \"trace\": " + (opts.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"source_rev\": " + JsonString(rev) + "}";
  std::cout << "meta " << meta << "\n";

  const bool correct = res.check_failures.empty();
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(res.attempted) +
      ", \"failed\": " + std::to_string(res.failed) +
      ", \"metrics\": " + MetricsJson(opts.trace ? res.layers : res.e2e) + "}";
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // One malloc arena: with one per thread, which threads happened to
  // get their own arena moved the serve workload's peak RSS by a
  // quarter from run to run, hiding the program's own memory use.
  mallopt(M_ARENA_MAX, 1);
  perfbench::Options opts;
  std::string rev = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(val);
    } else if (key == "--trace") {
      opts.trace = val == "1";
    } else if (key == "--dcrm") {
      opts.dcrm_bin = val;
    } else if (key == "--out-dir") {
      opts.out_dir = val;
    } else if (key == "--rev") {
      rev = val;
    } else {
      std::cerr << "perfbench: unknown flag " << key << "\n";
      return 2;
    }
  }
  if (opts.workload.empty() || opts.dcrm_bin.empty() || opts.out_dir.empty()) {
    std::cerr << "perfbench: --workload, --dcrm and --out-dir are required\n";
    return 2;
  }
  try {
    return perfbench::Run(opts, rev);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

// The `offline` workload: profile, timing replay under three schemes,
// static vulnerability and plan analysis, and a trace round trip.
#include <algorithm>
#include <functional>
#include <iostream>

#include "analysis/analysis.h"
#include "analysis/vulnerability.h"
#include "apps/driver.h"
#include "common/rng.h"
#include "spans.h"
#include "trace/trace_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dcrm;

struct OfflineApp {
  std::string name;
  apps::AppScale scale;
};

// The saturated stencil and the kernel graph at medium scale; C-NN,
// whose medium pass alone took half a round, and P-BICG, whose few
// warps leave the event engine mostly idle cycles to skip, at small
// scale, so a run fits enough rounds to filter host noise.
const std::vector<OfflineApp>& OfflineApps() {
  static const std::vector<OfflineApp> kApps = {
      {"C-NN", apps::AppScale::kSmall},
      {"A-SRAD", apps::AppScale::kMedium},
      {"L-Transformer", apps::AppScale::kMedium},
      {"P-BICG", apps::AppScale::kSmall},
  };
  return kApps;
}

// One app's offline pass. Each stage is timed on its own: stages are
// short, so a slow stretch of the host spoils a few stages of a pass
// rather than a whole pass, and each stage's fastest round counts.
struct PassResult {
  std::vector<double> stage_ms;   // in the order the stages run
  std::vector<double> replay_ms;  // the RunTiming stages alone
  std::uint64_t replay_txns = 0;
  std::uint64_t digest = 0;
  bool trace_round_trip_ok = false;
  double overhead_pct = 0;  // simulated cycles, correct over none
};

PassResult OfflinePass(const OfflineApp& spec, const sim::GpuConfig& gpu) {
  PassResult r;
  auto stage = [&r](const char* span, const std::function<void()>& fn) {
    const std::int64_t t = NowNs();
    {
      ScopedSpan s(span);
      fn();
    }
    r.stage_ms.push_back(MillisSince(t));
    return r.stage_ms.back();
  };
  ScopedSpan pass("bench.offline_pass");
  auto app = apps::MakeApp(spec.name, spec.scale);
  apps::ProfileResult profile;
  stage("core.profile", [&] { profile = apps::ProfileApp(*app, gpu); });
  const auto cover = static_cast<unsigned>(profile.hot.hot_objects.size());
  Digest d;
  AddGpuStats(d, profile.timing_baseline);
  sim::GpuStats none_stats, correct_stats;
  apps::ProtectionSetup correct_setup;
  for (sim::Scheme scheme : {sim::Scheme::kNone, sim::Scheme::kDetectOnly,
                             sim::Scheme::kDetectCorrect}) {
    apps::ProtectionSetup setup;
    stage("core.protection_setup", [&] {
      setup = apps::MakeProtectionSetup(
          *app, profile, scheme, scheme == sim::Scheme::kNone ? 0 : cover);
    });
    sim::GpuStats stats;
    r.replay_ms.push_back(stage("sim.replay", [&] {
      stats = apps::RunTiming(*app, profile, gpu, setup.plan);
    }));
    r.replay_txns += stats.transactions + stats.replica_transactions;
    AddGpuStats(d, stats);
    if (scheme == sim::Scheme::kNone) none_stats = stats;
    if (scheme == sim::Scheme::kDetectCorrect) {
      correct_stats = stats;
      correct_setup = std::move(setup);
    }
  }
  r.overhead_pct = 100.0 * (static_cast<double>(correct_stats.cycles) /
                                static_cast<double>(none_stats.cycles) -
                            1.0);
  stage("analysis.vuln", [&] {
    const analysis::VulnerabilityMap map = analysis::AnalyzeVulnerability(
        *profile.trace_store, correct_setup.dev->space(),
        app->OutputObjects());
    d.AddDouble(map.app_avf);
    for (const auto& o : map.objects) d.AddString(o.name).AddDouble(o.avf);
  });
  stage("analysis.analyze", [&] {
    analysis::AnalyzerInput in;
    in.traces = profile.trace_store.get();
    in.space = &correct_setup.dev->space();
    in.plan = &correct_setup.plan;
    in.cfg = gpu;
    const analysis::Report report = analysis::Analyze(in);
    d.Add(report.findings.size());
    d.Add(report.Count(analysis::Severity::kViolation));
  });
  std::string bytes;
  stage("trace.save",
        [&] { bytes = trace::SaveTraceToString(*profile.trace_store); });
  stage("trace.load", [&] {
    const auto loaded = trace::LoadTraceFromString(bytes);
    r.trace_round_trip_ok = *loaded == *profile.trace_store;
  });
  d.Add(bytes.size());
  r.digest = d.value();
  return r;
}

// Element-wise minimum of `v` into `best` (which starts empty).
void KeepFastest(std::vector<double>& best, const std::vector<double>& v) {
  if (best.empty()) {
    best = v;
    return;
  }
  for (std::size_t i = 0; i < v.size(); ++i) best[i] = std::min(best[i], v[i]);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

class OfflineWorkload final : public Workload {
 public:
  explicit OfflineWorkload(const Options& opts) : opts_(opts) {}

  // Every pass starts from a fresh app, so the modelled caches and
  // the profile are rebuilt each time; set-up is one warm-up pass of
  // the smallest app, which faults in code and allocator pages.
  void Setup() override {
    const OfflineApp& warm = OfflineApps().back();
    OfflinePass(warm, gpu_);
  }

  void Measure(double seconds, RunResult& out) override {
    const std::int64_t t0 = NowNs();
    const auto& list = OfflineApps();
    std::vector<std::uint64_t> first_digest(list.size(), 0);
    std::vector<std::vector<double>> stages(list.size()), replays(list.size());
    std::vector<std::uint64_t> replay_txns(list.size(), 0);
    std::vector<double> overhead(list.size(), 0);
    Rng rng(opts_.seed);
    unsigned round = 0;
    std::vector<std::size_t> order(list.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    while (round < kMinRounds || MillisSince(t0) < seconds * 1000) {
      // The seed fixes the order the apps run in each round.
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Below(i)]);
      }
      for (std::size_t k : order) {
        const PassResult r = OfflinePass(list[k], gpu_);
        Host().Sample();
        ++out.attempted;
        KeepFastest(stages[k], r.stage_ms);
        KeepFastest(replays[k], r.replay_ms);
        out.Check(r.trace_round_trip_ok,
                  "trace Save/Load round trip differs for " + list[k].name);
        if (round == 0) {
          first_digest[k] = r.digest;
          overhead[k] = r.overhead_pct;
          replay_txns[k] = r.replay_txns;
        } else {
          out.Check(r.digest == first_digest[k] &&
                        r.replay_txns == replay_txns[k],
                    "simulated stats differ across repetitions for " +
                        list[k].name);
        }
      }
      ++round;
    }
    // A quiet pass of an app is the sum of its fastest stages; a quiet
    // round is the sum over apps.
    double quiet_round = 0, quiet_replay = 0, slowest = 0, overhead_sum = 0;
    std::uint64_t txns = 0;
    Digest all;
    for (std::size_t k = 0; k < list.size(); ++k) {
      const double pass = Sum(stages[k]);
      quiet_round += pass;
      slowest = std::max(slowest, pass);
      quiet_replay += Sum(replays[k]);
      txns += replay_txns[k];
      overhead_sum += overhead[k];
      all.Add(first_digest[k]);
      std::cout << "offline: " << list[k].name << " ("
                << ScaleName(list[k].scale) << ") quiet pass ms " << pass
                << ", protect_overhead_pct " << overhead[k] << "\n";
    }
    out.e2e["throughput_per_s"] = {
        1000.0 * static_cast<double>(txns) / quiet_replay, "1/s", round,
        Scale::kRate};
    out.e2e["latency_ms"] = {quiet_round, "ms", round, Scale::kTime};
    // Too few passes for a percentile: the tail is the slowest app's
    // quiet pass.
    out.e2e["tail_latency_ms"] = {slowest, "ms", round, Scale::kTime};
    out.layers["sim.protect_overhead_pct"] = {
        overhead_sum / static_cast<double>(list.size()), "%", list.size()};
    out.digests.emplace_back("offline.sim_avf", all.value());
    std::cout << "offline: " << round << " rounds; replayed " << txns
              << " L1 transactions per round\n";
  }

 private:
  static constexpr unsigned kMinRounds = 2;

  Options opts_;
  sim::GpuConfig gpu_;
};

}  // namespace

std::unique_ptr<Workload> MakeOfflineWorkload(const Options& opts) {
  return std::make_unique<OfflineWorkload>(opts);
}

}  // namespace perfbench

// Shared pieces of the benchmark program: run options, the result a
// workload hands back, sample statistics and the output digest.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "fault/campaign.h"
#include "sim/stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dcrm_bin;  // the `dcrm` CLI that sharded campaigns spawn
  std::string out_dir;   // scratch space inside the checkout
};

// How a metric follows the host's speed: times shrink and rates grow
// as the host gets quieter (see HostSpeed).
enum class Scale { kNone, kTime, kRate };

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // how many measurements the value rests on
  Scale scale = Scale::kNone;
};

// Everything one run reports. `e2e` carries every end-to-end metric,
// `layers` every per-layer one (filled only by traced runs).
struct RunResult {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  // Named FNV-1a digests of deterministic outputs.
  std::vector<std::pair<std::string, std::uint64_t>> digests;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// A workload: set up once (timed by the caller), then measure for
// opts.seconds. `Setup` may be called several times; the last set-up
// is the one `Measure` uses.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup() = 0;
  // Runs the timed loop for `seconds` and fills e2e metrics, counts,
  // checks and digests into `out`.
  virtual void Measure(double seconds, RunResult& out) = 0;
};

// ---- statistics ----------------------------------------------------

double Median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);
// The mean of the slowest (100 - p)% of the samples, at least one: a
// tail that moves smoothly when single samples cross one another.
double TailMean(std::vector<double> v, double p);
double GeoMean(const std::vector<double>& v);

// ---- digest ----------------------------------------------------------

class Digest {
 public:
  Digest& Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  Digest& AddDouble(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    return Add(bits);
  }
  Digest& AddString(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    return Add(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void AddCounts(Digest& d, const dcrm::fault::CampaignCounts& c);
// Every simulated statistic except sim_ticks (engine work, not a
// simulated quantity); per-block misses in block order.
void AddGpuStats(Digest& d, const dcrm::sim::GpuStats& s);

// ---- host speed --------------------------------------------------------

// Times a fixed pointer-chasing loop over an L2-sized table, in ms. It
// shares no code with the program, so a change to the program cannot
// move it; only the host's speed at that moment can.
double ReferenceMs();

// Reference samples taken between a workload's timed operations. The
// end-to-end times and rates are reported at the reference's nominal
// speed: a time is divided by Slowdown() and a rate multiplied by it.
class HostSpeed {
 public:
  void Sample() { samples_.push_back(ReferenceMs()); }
  // A reference time taken elsewhere, such as on a sampling thread.
  void Record(double reference_ms) { samples_.push_back(reference_ms); }
  // The quiet reference time over the nominal one: 1 on a quiet host,
  // above 1 while other tenants slow it down.
  double Slowdown() const;
  std::size_t size() const { return samples_.size(); }

 private:
  std::vector<double> samples_;
};

// The run's one sampler; workloads call Host().Sample() between timed
// operations.
HostSpeed& Host();

// ---- misc ------------------------------------------------------------

// splitmix64: derives independent sub-seeds from the run seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt);

double MillisSince(std::int64_t start_ns);
double PeakRssMb();

const char* ScaleName(dcrm::apps::AppScale s);

}  // namespace perfbench

#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "spans.h"

namespace perfbench {

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double TailMean(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const auto k = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil((100.0 - p) / 100.0 * static_cast<double>(v.size()))),
      1, v.size());
  std::sort(v.begin(), v.end(), std::greater<double>());
  double sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += v[i];
  return sum / static_cast<double>(k);
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

void AddCounts(Digest& d, const dcrm::fault::CampaignCounts& c) {
  d.Add(c.runs).Add(c.masked).Add(c.sdc).Add(c.detected).Add(c.due);
  d.Add(c.crash).Add(c.recovered).Add(c.corrections);
  const auto& r = c.recovery;
  d.Add(r.scrubs).Add(r.scrub_sticks).Add(r.arbitrations);
  d.Add(r.retired_blocks).Add(r.retries).Add(r.backoff_units);
  d.Add(r.escalations).Add(r.exhausted_runs);
}

void AddGpuStats(Digest& d, const dcrm::sim::GpuStats& s) {
  d.Add(s.cycles).Add(s.warp_insts_issued).Add(s.mem_insts);
  d.Add(s.transactions).Add(s.replica_transactions).Add(s.l1_accesses);
  d.Add(s.l1_hits).Add(s.l1_pending_hits).Add(s.l1_misses);
  d.Add(s.l2_accesses).Add(s.l2_hits).Add(s.l2_misses);
  d.Add(s.replica_l2_hits).Add(s.replica_l2_misses).Add(s.dram_reads);
  d.Add(s.dram_writes).Add(s.dram_row_hits).Add(s.mshr_stalls);
  d.Add(s.compare_queue_stalls).Add(s.comparisons);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> misses(
      s.block_misses.begin(), s.block_misses.end());
  std::sort(misses.begin(), misses.end());
  for (const auto& [b, n] : misses) d.Add(b).Add(n);
}

double ReferenceMs() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 16);
    // One cycle through every slot (Sattolo's shuffle, fixed seed).
    for (std::uint32_t i = 0; i < t.size(); ++i) t[i] = i;
    std::uint64_t x = 88172645463325252ull;
    for (std::size_t i = t.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(t[i], t[x % i]);
    }
    return t;
  }();
  const std::int64_t t0 = NowNs();
  std::uint32_t idx = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < 400000; ++i) {
    idx = table[idx];
    acc = acc * 6364136223846793005ull + idx;
  }
  const double ms = MillisSince(t0);
  volatile std::uint64_t keep = acc;  // the loop must not be elided
  (void)keep;
  return ms;
}

HostSpeed& Host() {
  static HostSpeed host;
  return host;
}

double HostSpeed::Slowdown() const {
  // About the reference's quiet time on a 2.1 GHz Xeon vCPU.
  constexpr double kNominalMs = 2.5;
  return Percentile(samples_, 25) / kNominalMs;
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double MillisSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* ScaleName(dcrm::apps::AppScale s) {
  switch (s) {
    case dcrm::apps::AppScale::kTiny:
      return "tiny";
    case dcrm::apps::AppScale::kSmall:
      return "small";
    case dcrm::apps::AppScale::kMedium:
      return "medium";
  }
  return "?";
}

}  // namespace perfbench

// End-to-end and per-layer benchmark of the ulp-hetsim simulator.
//
// One process runs one workload as a closed loop (the next op starts when
// the previous one finished) against the public API of kernels, cluster,
// system, batch, snapshot and verif, and prints one report: a line per
// metric ("metric <name> <value> <unit>") and, last, one JSON object.
// Host time is what the simulator takes; every sim_* metric is simulated
// time or energy of the modelled node and is a pure function of the seed.
//
//   perfbench --workload analytic_campaign|cosim_single|cosim_multi|fuzz
//             --seed N --seconds S --trace 0|1
//             [--workers K] [--tiny] [--flip-expected]
//   perfbench --build-info
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates passes
// without and with the benchmark's own layer timers, then probes each
// layer once per distinct op, and reports the per-layer metrics. Timers sit
// around calls into the simulator; nothing inside the simulator is traced.
//
// Every op's output is checked (see NOTES.md for the exact failure rule):
// output bytes against the golden reference the benchmark holds, the
// library's own verdicts, exceptions, and a digest of simulated cycles,
// instructions and wire bytes that must repeat exactly whenever the same
// input is run again. --flip-expected flips one byte of every reference the
// benchmark compares against, which must make every op fail (self-test).
#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "batch/aggregate.hpp"
#include "batch/campaign.hpp"
#include "batch/engine.hpp"
#include "batch/pool.hpp"
#include "batch/runner.hpp"
#include "codegen/builder.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/block_cache.hpp"
#include "host/mcu.hpp"
#include "kernels/kernel.hpp"
#include "kernels/runner.hpp"
#include "link/fault_injector.hpp"
#include "link/spi_link.hpp"
#include "power/pulp_power.hpp"
#include "runtime/offload.hpp"
#include "snapshot/snapshot.hpp"
#include "system/hetero_system.hpp"
#include "system/host_driver.hpp"
#include "trace/event_trace.hpp"
#include "trace/metrics.hpp"
#include "verif/differential.hpp"
#include "verif/generator.hpp"
#include "verif/golden.hpp"

extern char** environ;

#ifndef ULP_BUILD_TYPE
#define ULP_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ulp;
using Clock = std::chrono::steady_clock;

constexpr u64 kFuzzMaxCycles = 5'000'000;
/// Fault spec of the faulted analytic jobs and the robust co-sim shape.
constexpr const char* kFaultSpec = "seed=7,flip=1e-4";

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Nearest-rank quantile (q in (0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}
double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// FNV-1a over 64-bit words: the per-op determinism digest.
struct Digest {
  u64 h = 0xcbf29ce484222325ull;
  Digest& add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
    return *this;
  }
  Digest& add_f64(double d) {
    u64 bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return add(bits);
  }
};

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  u32 workers = 2;
  bool tiny = false;
  bool flip = false;
};

u32 host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<u32>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, restarts at exec, so a launcher's own footprint is not
/// counted.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// One benchmark result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Accounting shared by every workload. Ops run in passes over the
/// workload's mix; rates are taken from the median pass, so a burst of
/// host noise in one pass does not move them.
struct Tally {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<double> op_ms;   ///< Host latency of every op.
  std::vector<double> pass_s;  ///< Host seconds of every whole pass.
  u64 ops_per_pass = 0;
  u64 instrs_per_pass = 0;     ///< Simulated instructions in one pass.
  bool consistent = true;      ///< Cross-checks outside single ops held.

  void op(double ms, bool ok) {
    ++attempted;
    if (!ok) ++failed;
    op_ms.push_back(ms);
  }
  [[nodiscard]] double ops_per_s() const {
    return ratio(static_cast<double>(ops_per_pass), median(pass_s));
  }
  [[nodiscard]] double mips() const {
    return ratio(static_cast<double>(instrs_per_pass) / 1e6, median(pass_s));
  }
};

/// Remembers the digest of the first run of each distinct input; a later
/// run of the same input must reproduce it exactly.
class DigestBook {
 public:
  explicit DigestBook(size_t n) : first_(n) {}
  [[nodiscard]] bool check(size_t index, u64 digest) {
    if (!first_[index]) {
      first_[index] = digest;
      return true;
    }
    return *first_[index] == digest;
  }

 private:
  std::vector<std::optional<u64>> first_;
};

/// Times a workload's set-up. The set-up runs a few times before the loop
/// and again between passes, until set-ups add up to kSetupShare of the
/// loop's time, so its samples see the host over the whole run, as the
/// ops do: a host's speed can shift between modes that last seconds. Every
/// set-up rebuilds the same products from the seed; the last one's are
/// used. setup_s is the median sample.
class SetupTimer {
 public:
  static constexpr double kSetupShare = 0.1;

  explicit SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {
    for (int i = 0; i < 5; ++i) run_once();
  }
  /// Runs set-ups until they add up to kSetupShare of `loop_s`.
  void top_up(double loop_s) {
    while (total_s_ < kSetupShare * loop_s) run_once();
  }
  [[nodiscard]] double median_s() const { return median(samples_); }
  void print() const {
    std::printf("setup reps=%zu min_s=%.6f p50_s=%.6f max_s=%.6f\n",
                samples_.size(), quantile(samples_, 0), median(samples_),
                quantile(samples_, 1));
  }

 private:
  void run_once() {
    const auto t0 = Clock::now();
    setup_();
    samples_.push_back(ms_since(t0) / 1e3);
    total_s_ += samples_.back();
  }

  std::function<void()> setup_;
  std::vector<double> samples_;
  double total_s_ = 0;
};

std::vector<u8> flipped(std::vector<u8> bytes, bool flip) {
  if (flip && !bytes.empty()) bytes[0] ^= 0x01;
  return bytes;
}

const kernels::KernelInfo& kernel_info(const std::string& name) {
  for (const auto& k : kernels::all_kernels()) {
    if (k.name == name) return k;
  }
  throw SimError("unknown kernel '" + name + "'");
}

/// Cluster counters summed over runs, for the cluster.* layer metrics.
struct ClusterCounters {
  u64 bc_hits = 0;
  u64 bc_decodes = 0;
  u64 bc_flushes = 0;
  u64 bc_dmap_fallbacks = 0;
  u64 tcdm_conflicts = 0;
  u64 icache_misses = 0;
  u64 core_cycles = 0;
  u64 core_sleep_cycles = 0;

  void add(const cluster::ClusterStats& s) {
    bc_hits += s.block_cache.hits;
    bc_decodes += s.block_cache.decodes;
    bc_flushes += s.block_cache.flushes;
    bc_dmap_fallbacks += s.block_cache.dmap_fallbacks;
    tcdm_conflicts += s.tcdm_conflicts;
    icache_misses += s.icache_misses;
    for (const core::PerfCounters& c : s.cores) {
      core_cycles += c.cycles;
      core_sleep_cycles += c.sleep_cycles;
    }
  }
  ClusterCounters& operator+=(const ClusterCounters& o) {
    bc_hits += o.bc_hits;
    bc_decodes += o.bc_decodes;
    bc_flushes += o.bc_flushes;
    bc_dmap_fallbacks += o.bc_dmap_fallbacks;
    tcdm_conflicts += o.tcdm_conflicts;
    icache_misses += o.icache_misses;
    core_cycles += o.core_cycles;
    core_sleep_cycles += o.core_sleep_cycles;
    return *this;
  }
};

/// Wall time of standalone cluster runs (kernels::run_on_cluster or
/// verif::run_on_cluster), one entry per probed op, and their counters.
struct ClusterProbe {
  std::vector<double> run_ms;
  u64 cycles = 0;
  u64 instrs = 0;
  ClusterCounters cc;
};

/// Every per-layer metric, zero unless the workload exercises the layer.
std::map<std::string, Metric> layer_template() {
  const std::pair<const char*, const char*> names[] = {
      {"cluster.run_ms", "ms"},
      {"cluster.mips", "MIPS"},
      {"cluster.mcycles_per_s", "Mcycles/s"},
      {"cluster.bc_hit_ratio", "fraction"},
      {"cluster.bc_flushes", "count"},
      {"cluster.bc_dmap_fallbacks", "count"},
      {"cluster.tcdm_conflicts", "count"},
      {"cluster.icache_misses", "count"},
      {"cluster.sleep_share", "fraction"},
      {"system.run_ms", "ms"},
      {"system.ctor_ms", "ms"},
      {"system.overhead_ms", "ms"},
      {"system.overhead_ratio", "ratio"},
      {"system.host_instrs", "count"},
      {"system.host_sleep_share", "fraction"},
      {"system.package_ms", "ms"},
      {"link.wire_bytes", "bytes"},
      {"link.wire_busy_share", "fraction"},
      {"link.host_link_bound_cycles", "cycles"},
      {"link.frames", "count"},
      {"link.crc_errors", "count"},
      {"link.retransmissions", "count"},
      {"link.fallbacks", "count"},
      {"batch.job_ms_p50", "ms"},
      {"batch.job_ms_p90", "ms"},
      {"batch.pool_efficiency", "fraction"},
      {"batch.fold_ms", "ms"},
      {"runtime.overhead_ms", "ms"},
      {"snapshot.bytes", "bytes"},
      {"snapshot.save_ms", "ms"},
      {"snapshot.restore_ms", "ms"},
      {"verif.snapshot_column_share", "fraction"},
      {"verif.generate_us", "us"},
      {"verif.golden_us", "us"},
      {"verif.check_ms", "ms"},
      {"verif.mode_ms.ref", "ms"},
      {"verif.mode_ms.ff", "ms"},
      {"verif.mode_ms.bc", "ms"},
      {"verif.mode_ms.bcmc", "ms"},
      {"kernels.gen_ms", "ms"},
      {"trace.attached_overhead_frac", "fraction"},
      {"profile.attached_overhead_frac", "fraction"},
      {"bench.trace_overhead_frac", "fraction"},
  };
  std::map<std::string, Metric> m;
  for (const auto& [name, unit] : names) m[name] = {name, 0.0, unit};
  return m;
}

void set(std::map<std::string, Metric>& m, const std::string& name,
         double v) {
  auto it = m.find(name);
  if (it == m.end()) throw SimError("perfbench: no layer metric " + name);
  it->second.value = v;
}

void set_cluster_layers(std::map<std::string, Metric>& m,
                        const ClusterProbe& probe,
                        const ClusterCounters& cc) {
  const double total_s = sum(probe.run_ms) / 1e3;
  set(m, "cluster.run_ms", median(probe.run_ms));
  set(m, "cluster.mips", ratio(static_cast<double>(probe.instrs) / 1e6, total_s));
  set(m, "cluster.mcycles_per_s",
      ratio(static_cast<double>(probe.cycles) / 1e6, total_s));
  set(m, "cluster.bc_hit_ratio",
      ratio(static_cast<double>(cc.bc_hits),
            static_cast<double>(cc.bc_hits + cc.bc_decodes)));
  set(m, "cluster.bc_flushes", static_cast<double>(cc.bc_flushes));
  set(m, "cluster.bc_dmap_fallbacks",
      static_cast<double>(cc.bc_dmap_fallbacks));
  set(m, "cluster.tcdm_conflicts", static_cast<double>(cc.tcdm_conflicts));
  set(m, "cluster.icache_misses", static_cast<double>(cc.icache_misses));
  set(m, "cluster.sleep_share",
      ratio(static_cast<double>(cc.core_sleep_cycles),
            static_cast<double>(cc.core_cycles)));
}

/// A kernel case and the number of cluster cores it runs on.
using CoreCase = std::pair<const kernels::KernelCase*, u32>;

/// Runs each kernel case alone on a cluster, three times, and keeps the
/// median time per case.
ClusterProbe probe_kernels(const std::vector<CoreCase>& cases) {
  ClusterProbe p;
  const core::CoreConfig cfg = core::or10n_config();
  for (const auto& [kc, num_cores] : cases) {
    std::vector<double> ms;
    kernels::RunOutcome out;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      out = kernels::run_on_cluster(*kc, cfg, num_cores);
      ms.push_back(ms_since(t0));
    }
    p.run_ms.push_back(median(ms));
    p.cycles += out.cycles;
    p.instrs += out.stats.total_instrs();
    p.cc.add(out.stats);
  }
  return p;
}

/// The end-to-end metrics every workload reports. `pass_*` are simulated
/// totals over one pass of the workload's mix (every distinct op once).
std::vector<Metric> end_to_end(const Tally& t, const SetupTimer& setup,
                               u64 pass_cluster_cycles,
                               std::optional<u64> pass_host_cycles,
                               std::optional<double> pass_energy_uj) {
  setup.print();
  std::vector<Metric> m = {
      {"throughput_ops_per_s", t.ops_per_s(), "ops/s"},
      {"op_latency_ms_p50", quantile(t.op_ms, 0.5), "ms"},
      {"op_latency_ms_p90", quantile(t.op_ms, 0.9), "ms"},
      {"sim_mips", t.mips(), "MIPS"},
      {"setup_s", setup.median_s(), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"error_rate",
       ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
       "fraction"},
      {"sim_cluster_cycles", static_cast<double>(pass_cluster_cycles),
       "cycles"},
  };
  if (pass_host_cycles) {
    m.push_back({"sim_host_cycles", static_cast<double>(*pass_host_cycles),
                 "cycles"});
  }
  if (pass_energy_uj) m.push_back({"sim_energy_uj", *pass_energy_uj, "uJ"});
  return m;
}

void emit(const Options& o, const Tally& t, const std::vector<Metric>& m) {
  std::printf("provenance build_type=%s asserts=%s dispatch=%s nproc=%u "
              "workers=%u workload=%s seed=%llu trace=%d\n",
              ULP_BUILD_TYPE,
#ifdef NDEBUG
              "off",
#else
              "on",
#endif
              core::block_dispatch_backend(), host_nproc(), o.workers,
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0);
  std::printf("ops attempted=%llu failed=%llu passes=%zu ops_per_pass=%llu "
              "pass_s_min=%.4f pass_s_p50=%.4f pass_s_max=%.4f\n",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed), t.pass_s.size(),
              static_cast<unsigned long long>(t.ops_per_pass),
              quantile(t.pass_s, 0), median(t.pass_s), quantile(t.pass_s, 1));
  for (const Metric& x : m) {
    std::printf("metric %-32s %.10g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  const bool correct = t.failed == 0 && t.consistent && t.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m[i].value)) {
      throw SimError("perfbench: metric " + m[i].name + " is not finite");
    }
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m[i].value);
    json += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<Metric> layer_list(const std::map<std::string, Metric>& m) {
  std::vector<Metric> v;
  for (const auto& [name, metric] : m) v.push_back(metric);
  return v;
}

/// What one op reports: its host wall ms, whether it passed, its digest
/// and the simulated instructions it retired.
struct OpResult {
  double ms = 0;
  bool ok = false;
  u64 digest = 0;
  u64 instrs = 0;
};

/// One pass over the mix: every op's result, in mix order, and the pass's
/// host seconds.
struct PassResult {
  std::vector<OpResult> ops;
  double seconds = 0;
};

/// Closed loop over `mix` (indices of distinct ops): `run_pass` runs whole
/// passes until `seconds` of pass time and at least kMinOps ops are
/// measured, with set-ups timed between passes. With `traced` set, passes
/// alternate between `plain` and `traced` (run_pass is told which), so
/// host drift during the run hits both alike. Every op must reproduce the
/// digest of the first run of its input.
constexpr u64 kMinOps = 100;

template <class RunPass>
void closed_loop(const std::vector<size_t>& mix, size_t distinct,
                 double seconds, SetupTimer& setup, Tally* plain,
                 Tally* traced, RunPass&& run_pass) {
  DigestBook book(distinct);
  double timed_s = 0;
  plain->ops_per_pass = mix.size();
  if (traced != nullptr) traced->ops_per_pass = mix.size();
  for (u64 pass = 0;; ++pass) {
    const bool trace_pass = traced != nullptr && pass % 2 == 1;
    Tally* t = trace_pass ? traced : plain;
    const PassResult p = run_pass(trace_pass);
    u64 instrs = 0;
    for (size_t k = 0; k < mix.size(); ++k) {
      const OpResult& r = p.ops[k];
      const bool same = book.check(mix[k], r.digest);
      if (!same) {
        std::fprintf(stderr, "op %zu: digest differs from its first run\n",
                     mix[k]);
      }
      t->op(r.ms, r.ok && same);
      instrs += r.instrs;
    }
    t->pass_s.push_back(p.seconds);
    t->instrs_per_pass = instrs;
    timed_s += p.seconds;
    setup.top_up(timed_s);
    const bool enough = traced != nullptr ? !traced->pass_s.empty()
                                          : plain->attempted >= kMinOps;
    if (timed_s >= seconds && enough) break;
  }
}

/// A pass of single-threaded ops, run one after another on this thread;
/// the pass takes as long as its ops together.
template <class Op>
PassResult serial_pass(const std::vector<size_t>& mix, bool trace_pass,
                       Op& op) {
  PassResult p;
  for (size_t i : mix) {
    OpResult r;
    try {
      r = op(i, trace_pass);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %zu threw: %s\n", i, e.what());
      r.ok = false;
    }
    p.ops.push_back(r);
    p.seconds += r.ms / 1e3;
  }
  return p;
}

// ---------------------------------------------------------------- analytic

/// Base seed of the analytic campaign, which is pinned rather than drawn
/// from --seed. A faulted job either gives up on the link at once or
/// simulates the whole kernel, decided by its seed, so the host cost of the
/// campaign varied by +-20% between base seeds while its simulated work did
/// not; 1 is ulp_campaign's default.
constexpr u64 kCampaignSeed = 1;

/// Re-runs an analytic job's offload through the public runtime API, with
/// the session, link, fault schedule and operating point batch::run_job
/// builds for it, and returns the outcome with the bytes the job produced.
runtime::OffloadOutcome replay_job(const batch::JobSpec& j,
                                   const kernels::KernelCase& kc) {
  const host::McuSpec& mcu = host::stm32l476();
  link::SpiLinkConfig lcfg;
  lcfg.lanes = j.lanes != 0 ? j.lanes : mcu.spi_lanes;
  lcfg.max_freq_hz = mcu.spi_max_hz;
  runtime::OffloadSession session(mcu, mhz(j.mcu_mhz), link::SpiLink(lcfg));
  std::unique_ptr<link::FaultInjector> injector;
  if (!j.fault_spec.empty()) {
    link::FaultConfig f;
    link::FaultInjector::parse(j.fault_spec, &f).or_throw();
    f.seed = derive_seed(j.seed, f.seed);
    injector = std::make_unique<link::FaultInjector>(f);
    session.attach_faults(injector.get());
  }
  const power::PulpPowerModel pm;
  const power::OperatingPoint op{j.vdd, pm.fmax_hz(j.vdd)};
  return runtime::run_with_host_fallback(session, kc.offload_request(), op,
                                         j.num_cores);
}

int run_analytic(const Options& o) {
  batch::CampaignSpec spec;
  spec.engine = batch::Engine::kAnalytic;
  spec.kernels = {"matmul", "cnn", "svm (linear)", "strassen", "hog"};
  spec.num_cores = {1, 4};
  spec.mcu_mhz = {16, 48};
  spec.vdd = {0.5, 0.8};
  spec.faults = {"none", kFaultSpec};
  if (o.tiny) {
    spec.kernels = {"matmul", "svm (linear)"};
    spec.num_cores = {4};
    spec.mcu_mhz = {16};
    spec.vdd = {0.5};
  }
  spec.base_seed = kCampaignSeed;

  std::vector<batch::JobSpec> jobs;
  std::vector<kernels::KernelCase> cases;  // the benchmark's own references
  std::vector<std::vector<u8>> expected;
  std::unique_ptr<batch::Pool> pool;
  std::vector<double> gen_ms;
  SetupTimer setup([&] {
    pool.reset();
    jobs = batch::expand(spec);
    cases.clear();
    expected.clear();
    gen_ms.clear();
    const auto cfg = core::or10n_config();
    for (const batch::JobSpec& j : jobs) {
      const auto t0 = Clock::now();
      cases.push_back(kernel_info(j.kernel).factory(
          cfg.features, j.num_cores, kernels::Target::kCluster, j.seed));
      gen_ms.push_back(ms_since(t0));
      expected.push_back(flipped(cases.back().expected, o.flip));
    }
    pool = std::make_unique<batch::Pool>(o.workers);
  });

  // One pass is one campaign: every job submitted at once, as
  // batch::run_campaign does (expand -> Pool -> run_job -> aggregate_totals;
  // unrolled here so the pool starts during set-up and each job gets its
  // own timer). An op's latency is the job's run_job time on its worker.
  const size_t n = jobs.size();
  std::vector<size_t> mix(n);
  for (size_t i = 0; i < n; ++i) mix[i] = i;
  batch::CampaignResult first;
  u64 fallbacks_per_pass = 0;
  auto campaign_pass = [&](bool) {
    std::vector<batch::JobResult> results(n);
    std::vector<double> job_ms(n);
    const auto t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      pool->submit([&, i] {
        const auto tj = Clock::now();
        results[i] = batch::run_job(jobs[i]);  // never throws
        job_ms[i] = ms_since(tj);
      });
    }
    pool->wait_idle();
    const batch::CampaignTotals totals = batch::aggregate_totals(results);
    PassResult p;
    p.seconds = ms_since(t0) / 1e3;
    fallbacks_per_pass = 0;
    for (size_t i = 0; i < n; ++i) {
      const batch::JobResult& r = results[i];
      OpResult op;
      op.ms = job_ms[i];
      op.ok = r.pass;
      op.instrs = r.total_instrs;
      op.digest = Digest()
                      .add(r.accel_cycles).add(r.total_instrs)
                      .add(r.tcdm_conflicts).add(r.icache_misses)
                      .add(r.fault_count).add(r.robust.crc_errors)
                      .add(r.robust.retransmissions).add(r.timing.in_bytes)
                      .add(r.timing.out_bytes).add(r.timing.binary_bytes)
                      .add_f64(r.energy.total_j()).add_f64(r.timing.t_retry_s)
                      .add(r.pass).add(static_cast<u64>(r.status.code()))
                      .h;
      // A job that is not ok but passed was recovered by retry or host
      // fallback: expected, not a failure.
      if (!r.status.ok() && r.pass) ++fallbacks_per_pass;
      if (!r.pass) {
        std::fprintf(stderr, "job %s failed: status=%s\n",
                     r.spec.label().c_str(), r.status.message().c_str());
      }
      p.ops.push_back(op);
    }
    if (first.jobs.empty()) {
      first.spec = spec;
      first.jobs = std::move(results);
      first.totals = totals;
    }
    return p;
  };

  Tally t;
  Tally untraced;
  if (o.trace) {
    closed_loop(mix, n, o.seconds, setup, &untraced, &t, campaign_pass);
  } else {
    closed_loop(mix, n, o.seconds, setup, &t, nullptr, campaign_pass);
  }

  // Output check: run_job keeps no output bytes, so each job's offload is
  // replayed through the same public runtime calls. The replay must
  // reproduce the timed job's simulated figures (so its bytes are the ones
  // the timed job produced) and its output must equal the benchmark's
  // golden reference; otherwise every op of that job failed.
  std::vector<runtime::OffloadOutcome> replays(n);
  std::vector<u8> threw(n, 0);
  {
    batch::Pool replay_pool(o.workers);
    for (size_t i = 0; i < n; ++i) {
      replay_pool.submit([&, i] {
        try {
          replays[i] = replay_job(jobs[i], cases[i]);
        } catch (const std::exception&) {
          threw[i] = 1;
        }
      });
    }
  }
  const u64 passes = t.pass_s.size() + untraced.pass_s.size();
  for (size_t i = 0; i < n; ++i) {
    const runtime::OffloadOutcome& rp = replays[i];
    const batch::JobResult& r = first.jobs[i];
    const bool same_job =
        !threw[i] && rp.timing.accel_cycles == r.accel_cycles &&
        rp.stats.total_instrs() == r.total_instrs &&
        rp.robust.crc_errors == r.robust.crc_errors &&
        rp.robust.retransmissions == r.robust.retransmissions &&
        rp.used_host_fallback == r.used_host_fallback &&
        rp.status.code() == r.status.code();
    if (!same_job || rp.output != expected[i]) {
      std::fprintf(stderr, "job %s: %s\n", jobs[i].label().c_str(),
                   same_job ? "output differs from the reference"
                            : "replay differs from the timed job");
      t.failed += passes;  // the job ran once in every pass
    }
  }
  if (o.trace || o.tiny) {
    // The unrolled loop above must be batch::run_campaign, byte for byte.
    batch::RunOptions ro;
    ro.workers = o.workers;
    if (batch::to_json(batch::run_campaign(spec, ro)) != batch::to_json(first)) {
      std::fprintf(stderr, "run_campaign result differs from the benchmark loop\n");
      t.consistent = false;
    }
  }

  if (!o.trace) {
    emit(o, t, end_to_end(t, setup, first.totals.accel_cycles, std::nullopt,
                          first.totals.energy_j * 1e6));
    return 0;
  }

  auto m = layer_template();
  std::vector<CoreCase> probed;
  for (size_t i = 0; i < n; ++i) {
    probed.emplace_back(&cases[i], jobs[i].num_cores);
  }
  const ClusterProbe probe = probe_kernels(probed);
  const std::vector<double>& cluster_ms = probe.run_ms;
  set_cluster_layers(m, probe, probe.cc);
  set(m, "kernels.gen_ms", median(gen_ms));
  set(m, "link.fallbacks", static_cast<double>(fallbacks_per_pass));
  set(m, "link.crc_errors", static_cast<double>(first.totals.crc_errors));
  set(m, "link.retransmissions",
      static_cast<double>(first.totals.retransmissions));
  // Serial run_job per job on this thread: the batch layer's own cost.
  std::vector<double> serial_ms;
  std::vector<double> runtime_overhead;
  for (size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    const batch::JobResult r = batch::run_job(jobs[i]);
    serial_ms.push_back(ms_since(t0));
    // Jobs that fell back to the host never simulated the kernel.
    if (!r.used_host_fallback) {
      runtime_overhead.push_back(serial_ms.back() - cluster_ms[i]);
    }
    if (!r.pass) t.consistent = false;
  }
  set(m, "batch.job_ms_p50", quantile(serial_ms, 0.5));
  set(m, "batch.job_ms_p90", quantile(serial_ms, 0.9));
  set(m, "runtime.overhead_ms", median(runtime_overhead));
  set(m, "batch.pool_efficiency",
      ratio(sum(serial_ms) / 1e3, median(t.pass_s) * o.workers));
  {
    std::vector<double> fold;
    const std::string csv = ".perfbench_fold.csv";
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      batch::CampaignResult r = first;
      r.totals = batch::aggregate_totals(r.jobs);
      const std::string json = batch::to_json(r);
      const Status s = batch::write_csv(csv, r);
      fold.push_back(ms_since(t0));
      if (!s.ok() || json.empty()) t.consistent = false;
    }
    std::remove(csv.c_str());
    set(m, "batch.fold_ms", median(fold));
  }
  {
    // One clean 4-core matmul job with and without profile collection.
    batch::JobSpec plain = jobs[0];
    for (const batch::JobSpec& j : jobs) {
      if (j.kernel == "matmul" && j.num_cores == 4 && j.fault_spec.empty()) {
        plain = j;
        break;
      }
    }
    batch::JobSpec prof = plain;
    prof.collect_profile = true;
    std::vector<double> a;
    std::vector<double> b;
    for (int rep = 0; rep < 7; ++rep) {
      auto t0 = Clock::now();
      const batch::JobResult ra = batch::run_job(plain);
      a.push_back(ms_since(t0));
      t0 = Clock::now();
      const batch::JobResult rb = batch::run_job(prof);
      b.push_back(ms_since(t0));
      if (ra.accel_cycles != rb.accel_cycles) t.consistent = false;
    }
    set(m, "profile.attached_overhead_frac", median(b) / median(a) - 1);
  }
  set(m, "bench.trace_overhead_frac", 1 - ratio(t.ops_per_s(), untraced.ops_per_s()));
  t.attempted += untraced.attempted;
  t.failed += untraced.failed;
  emit(o, t, layer_list(m));
  return 0;
}

// ------------------------------------------------------------------ co-sim

/// The DMA-bound stream4k guest: core 0 pulls a 4 KiB window from L2 into
/// TCDM 32 times, sleeping on WFE through every burst, then writes the
/// word-sum of the window; cores 1..3 halt at once, so the cluster is
/// clock-gated most of the time. Input bytes come from `seed`.
kernels::KernelCase make_stream4k(u64 seed) {
  using isa::Opcode;
  constexpr u32 kWindowBytes = 4 * 1024;
  constexpr u32 kPasses = 32;
  codegen::Builder bld(core::or10n_config().features);
  bld.csr_coreid(1);
  const auto work = bld.make_label();
  bld.branch(Opcode::kBeq, 1, codegen::zero, work);
  bld.halt();
  bld.bind(work);
  bld.li(20, kernels::kL2InputAddr);
  bld.li(21, cluster::kTcdmBase);
  bld.li(22, kWindowBytes);
  bld.li(4, kPasses);
  bld.loop(4, 11, [&] {
    bld.dma_start(25, 20, 21, 22);
    bld.dma_wait_wfe(25, 26);
  });
  bld.li(5, 0);
  bld.li(6, cluster::kTcdmBase);
  bld.li(4, kWindowBytes / 4);
  bld.loop(4, 11, [&] {
    bld.emit(Opcode::kLw, 7, 6, 0, 0);
    bld.emit(Opcode::kAdd, 5, 5, 7);
    bld.emit(Opcode::kAddi, 6, 6, 0, 4);
  });
  bld.li(8, kernels::kL2OutputAddr);
  bld.emit(Opcode::kSw, 5, 8, 0, 0);
  bld.eoc();

  kernels::KernelCase kc;
  kc.name = "stream4k";
  kc.program = bld.finalize();
  Rng rng(seed);
  kc.input.resize(kWindowBytes);
  for (u8& b : kc.input) b = static_cast<u8>(rng.next_u32());
  kc.input_addr = kernels::kL2InputAddr;
  kc.output_bytes = 4;
  kc.output_addr = kernels::kL2OutputAddr;
  u32 word_sum = 0;
  for (u32 i = 0; i < kWindowBytes; i += 4) {
    word_sum += static_cast<u32>(kc.input[i]) |
                static_cast<u32>(kc.input[i + 1]) << 8 |
                static_cast<u32>(kc.input[i + 2]) << 16 |
                static_cast<u32>(kc.input[i + 3]) << 24;
  }
  kc.expected = {static_cast<u8>(word_sum), static_cast<u8>(word_sum >> 8),
                 static_cast<u8>(word_sum >> 16),
                 static_cast<u8>(word_sum >> 24)};
  return kc;
}

/// One distinct co-sim op: a node configuration plus its packaged driver.
struct CosimShape {
  std::string label;
  system::HeteroSystemParams params;
  std::vector<kernels::KernelCase> cases;  ///< One per cluster.
  std::vector<std::vector<u8>> expected;   ///< The benchmark's references.
  system::FullSystemPackage solo;          ///< num_clusters == 1.
  system::MultiSystemPackage multi;        ///< num_clusters > 1.
  bool robust = false;
};

/// Simulated statistics of one finished co-sim op.
struct CosimObservation {
  u64 host_cycles = 0;
  u64 cluster_cycles = 0;
  u64 host_instrs = 0;
  u64 host_sleep_cycles = 0;
  u64 cluster_instrs = 0;
  system::HeteroStats stats;
  ClusterCounters cc;
  bool fallback = false;

  [[nodiscard]] u64 digest() const {
    Digest d;
    d.add(host_cycles).add(cluster_cycles).add(host_instrs)
        .add(cluster_instrs).add(stats.wire_bytes).add(stats.link_frames)
        .add(stats.link_crc_errors).add(stats.fault_count).add(fallback);
    return d.h;
  }
};

/// Reads the counters from the system itself: JobResult-style counters are
/// not filled on the co-sim path (see NOTES.md).
CosimObservation observe(system::HeteroSystem& sys, u64 host_cycles) {
  CosimObservation ob;
  ob.host_cycles = host_cycles;
  ob.stats = sys.stats();
  ob.cluster_cycles = ob.stats.cluster_cycles;
  ob.host_instrs = sys.host_core().perf().instrs;
  ob.host_sleep_cycles = sys.host_core().perf().sleep_cycles;
  for (u32 c = 0; c < sys.num_clusters(); ++c) {
    const cluster::ClusterStats s = sys.soc(c).cluster().stats();
    ob.cluster_instrs += s.total_instrs();
    ob.cc.add(s);
  }
  return ob;
}

std::vector<u8> read_host(system::HeteroSystem& sys, Addr addr, u32 len) {
  std::vector<u8> out(len);
  for (u32 i = 0; i < len; ++i) {
    out[i] = static_cast<u8>(sys.host_sram().load(addr + i, 1, false));
  }
  return out;
}

struct CosimRun {
  double ctor_ms = 0;
  double run_ms = 0;
  bool output_ok = false;
  CosimObservation ob;
};

/// One co-sim op: build the node, run the packaged driver to host halt,
/// read the outputs back from host SRAM and compare them. With
/// `time_layers` the constructor and the run are timed on their own.
CosimRun run_cosim_op(const CosimShape& s, bool time_layers,
                      const trace::Sinks& sinks = {}) {
  CosimRun r;
  Clock::time_point t0;
  if (time_layers) t0 = Clock::now();
  system::HeteroSystem sys(s.params);
  if (time_layers) {
    r.ctor_ms = ms_since(t0);
    t0 = Clock::now();
  }
  if (sinks) sys.attach_trace(sinks);
  std::vector<std::vector<u8>> outputs;
  u64 host_cycles = 0;
  bool fallback = false;
  if (s.params.num_clusters > 1) {
    system::MultiOffloadResult res = system::run_multi_offload(sys, s.multi);
    host_cycles = res.host_cycles;
    outputs = std::move(res.outputs);
  } else if (s.robust) {
    system::SystemOffloadResult res =
        system::run_offload_with_fallback(sys, s.solo);
    host_cycles = res.host_cycles;
    fallback = res.used_host_fallback;
    outputs.push_back(std::move(res.output));
  } else {
    sys.load_host_program(s.solo.host_program);
    host_cycles = sys.run_to_host_halt();
    outputs.push_back(read_host(sys, s.solo.spec.host_output_addr,
                                s.solo.spec.output_len));
  }
  if (time_layers) r.run_ms = ms_since(t0);
  r.output_ok = outputs.size() == s.expected.size();
  for (size_t c = 0; r.output_ok && c < outputs.size(); ++c) {
    r.output_ok = outputs[c] == s.expected[c];
  }
  r.ob = observe(sys, host_cycles);
  r.ob.fallback = fallback;
  return r;
}

std::vector<CosimShape> single_shapes(const Options& o) {
  std::vector<CosimShape> shapes;
  const char* names[] = {"matmul", "cnn", "svm (linear)", "strassen"};
  const std::pair<double, double> clocks[] = {{16, 16}, {80, 8}};
  for (const char* k : names) {
    for (const auto& [mcu, pulp] : clocks) {
      for (u32 lanes : {1u, 4u}) {
        CosimShape s;
        s.label = std::string(k) + "/" + std::to_string(int(mcu)) + "-" +
                  std::to_string(int(pulp)) + "MHz/l" + std::to_string(lanes);
        s.params.mcu_freq_hz = mhz(mcu);
        s.params.pulp_freq_hz = mhz(pulp);
        s.params.spi_lanes = lanes;
        shapes.push_back(std::move(s));
      }
    }
  }
  CosimShape stream;
  stream.label = "stream4k/80-8MHz/l4";
  stream.params.mcu_freq_hz = mhz(80);
  stream.params.pulp_freq_hz = mhz(8);
  shapes.push_back(std::move(stream));
  CosimShape robust;
  robust.label = "matmul/16-16MHz/l4/crc+flip";
  robust.robust = true;
  robust.params.crc_frames = true;
  shapes.push_back(std::move(robust));
  if (o.tiny) {
    shapes.erase(shapes.begin() + 1, shapes.end() - 2);
  }
  return shapes;
}

std::vector<CosimShape> multi_shapes(const Options& o) {
  std::vector<CosimShape> shapes;
  const char* names[] = {"matmul", "cnn", "strassen", "svm (linear)"};
  for (u32 clusters : {2u, 4u}) {
    for (const char* k : names) {
      for (bool hetero : {false, true}) {
        CosimShape s;
        s.label = std::string(k) + "/x" + std::to_string(clusters) +
                  (hetero ? "/hetero-clock" : "/uniform");
        s.params.num_clusters = clusters;
        if (hetero) {
          // Cluster clocks step down from the host clock: 16, 12, 10, 8 MHz.
          const double f[] = {16, 12, 10, 8};
          for (u32 c = 0; c < clusters; ++c) {
            s.params.cluster_freq_hz.push_back(mhz(f[c]));
          }
        }
        shapes.push_back(std::move(s));
      }
    }
  }
  if (o.tiny) shapes.resize(2);
  return shapes;
}

/// Generates the shapes' kernel cases and packages their drivers.
void build_cases(const Options& o, std::vector<CosimShape>* shapes,
                 std::vector<double>* gen_ms, std::vector<double>* pkg_ms) {
  const auto cfg = core::or10n_config();
  for (size_t i = 0; i < shapes->size(); ++i) {
    CosimShape& s = (*shapes)[i];
    s.cases.clear();
    s.expected.clear();
    const std::string kernel = s.label.substr(0, s.label.find('/'));
    for (u32 c = 0; c < s.params.num_clusters; ++c) {
      const u64 seed = derive_seed(o.seed, i * 64 + c);
      const auto t0 = Clock::now();
      s.cases.push_back(kernel == "stream4k"
                            ? make_stream4k(seed)
                            : kernel_info(kernel).factory(
                                  cfg.features, 4, kernels::Target::kCluster,
                                  seed));
      gen_ms->push_back(ms_since(t0));
      s.expected.push_back(flipped(s.cases.back().expected, o.flip));
    }
    if (s.robust) {
      link::FaultConfig f;
      link::FaultInjector::parse(kFaultSpec, &f).or_throw();
      f.seed = derive_seed(o.seed, f.seed);
      s.params.faults = f;
    }
    const auto t0 = Clock::now();
    if (s.params.num_clusters > 1) {
      s.multi = system::package_multi_offload(s.cases);
    } else if (s.robust) {
      s.solo = system::package_robust_offload(s.cases[0]);
    } else {
      s.solo = system::package_offload(s.cases[0]);
    }
    pkg_ms->push_back(ms_since(t0));
  }
}

int run_cosim(const Options& o, bool multi, const std::vector<size_t>& weights) {
  std::vector<CosimShape> shapes;
  std::vector<double> gen_ms;
  std::vector<double> pkg_ms;
  SetupTimer setup([&] {
    shapes = multi ? multi_shapes(o) : single_shapes(o);
    gen_ms.clear();
    pkg_ms.clear();
    build_cases(o, &shapes, &gen_ms, &pkg_ms);
  });

  std::vector<size_t> mix;
  for (size_t i = 0; i < shapes.size(); ++i) {
    const size_t w = i < weights.size() && !o.tiny ? weights[i] : 1;
    for (size_t k = 0; k < w; ++k) mix.push_back(i);
  }

  std::vector<std::optional<CosimObservation>> first(shapes.size());
  std::vector<std::vector<double>> ctor_ms(shapes.size());
  std::vector<std::vector<double>> run_ms(shapes.size());
  auto op = [&](size_t i, bool traced) {
    const auto t0 = Clock::now();
    CosimRun r = run_cosim_op(shapes[i], traced);
    OpResult res;
    res.ms = ms_since(t0);
    if (traced) {
      ctor_ms[i].push_back(r.ctor_ms);
      run_ms[i].push_back(r.run_ms);
    }
    res.ok = r.output_ok;
    if (!r.output_ok) {
      std::fprintf(stderr, "%s: output differs from the reference\n",
                   shapes[i].label.c_str());
    }
    res.digest = r.ob.digest();
    res.instrs = r.ob.host_instrs + r.ob.cluster_instrs;
    if (!first[i]) first[i] = r.ob;
    return res;
  };

  auto pass = [&](bool traced) { return serial_pass(mix, traced, op); };
  Tally t;
  Tally untraced;
  if (o.trace) {
    closed_loop(mix, shapes.size(), o.seconds, setup, &untraced, &t, pass);
  } else {
    closed_loop(mix, shapes.size(), o.seconds, setup, &t, nullptr, pass);
  }

  u64 pass_cluster = 0;
  u64 pass_host = 0;
  for (const auto& ob : first) {
    pass_cluster += ob->cluster_cycles;
    pass_host += ob->host_cycles;
  }
  if (!o.trace) {
    emit(o, t, end_to_end(t, setup, pass_cluster, pass_host, std::nullopt));
    return 0;
  }

  auto m = layer_template();
  ClusterCounters cc;
  u64 host_instrs = 0, host_sleep = 0, host_cycles = 0, wire_bytes = 0,
      wire_busy = 0, link_bound = 0, frames = 0, crc = 0, fallbacks = 0;
  for (const auto& ob : first) {
    cc += ob->cc;
    host_instrs += ob->host_instrs;
    host_sleep += ob->host_sleep_cycles;
    host_cycles += ob->host_cycles;
    wire_bytes += ob->stats.wire_bytes;
    wire_busy += ob->stats.wire_busy_host_cycles;
    link_bound += ob->stats.host_link_bound_cycles;
    frames += ob->stats.link_frames;
    crc += ob->stats.link_crc_errors;
    fallbacks += ob->fallback ? 1 : 0;
  }
  // Each shard's kernel alone on a cluster, against the system run.
  std::vector<CoreCase> all_cases;
  for (const CosimShape& s : shapes) {
    for (const auto& kc : s.cases) all_cases.emplace_back(&kc, 4);
  }
  const ClusterProbe probe = probe_kernels(all_cases);
  const std::vector<double>& case_ms = probe.run_ms;
  set_cluster_layers(m, probe, cc);
  double sys_total = 0;
  std::vector<double> all_ctor;
  std::vector<double> all_run;
  for (size_t i = 0; i < shapes.size(); ++i) {
    sys_total += median(run_ms[i]);
    all_ctor.insert(all_ctor.end(), ctor_ms[i].begin(), ctor_ms[i].end());
    all_run.insert(all_run.end(), run_ms[i].begin(), run_ms[i].end());
  }
  const double cluster_total = sum(case_ms);
  set(m, "system.run_ms", median(all_run));
  set(m, "system.ctor_ms", median(all_ctor));
  set(m, "system.overhead_ms",
      (sys_total - cluster_total) / static_cast<double>(shapes.size()));
  set(m, "system.overhead_ratio", ratio(sys_total, cluster_total));
  set(m, "system.host_instrs", static_cast<double>(host_instrs));
  set(m, "system.host_sleep_share",
      ratio(static_cast<double>(host_sleep), static_cast<double>(host_cycles)));
  set(m, "system.package_ms", median(pkg_ms));
  set(m, "kernels.gen_ms", median(gen_ms));
  set(m, "link.wire_bytes", static_cast<double>(wire_bytes));
  set(m, "link.wire_busy_share",
      ratio(static_cast<double>(wire_busy), static_cast<double>(host_cycles)));
  set(m, "link.host_link_bound_cycles", static_cast<double>(link_bound));
  set(m, "link.frames", static_cast<double>(frames));
  set(m, "link.crc_errors", static_cast<double>(crc));
  set(m, "link.fallbacks", static_cast<double>(fallbacks));

  // HeteroSystem save after each shape's offload, restored into a fresh
  // node that must report the same simulated totals.
  std::vector<double> bytes, save_ms, restore_ms;
  for (const CosimShape& s : shapes) {
    system::HeteroSystem donor(s.params);
    donor.load_host_program(s.params.num_clusters > 1 ? s.multi.host_program
                                                      : s.solo.host_program);
    (void)donor.run_to_host_halt();
    snapshot::Writer w;
    auto t0 = Clock::now();
    donor.save(w).or_throw();
    const std::vector<u8> image = w.finish();
    save_ms.push_back(ms_since(t0));
    bytes.push_back(static_cast<double>(image.size()));
    system::HeteroSystem fresh(s.params);
    snapshot::Reader rd;
    rd.open(image).or_throw();
    t0 = Clock::now();
    const Status st = fresh.restore(rd);
    restore_ms.push_back(ms_since(t0));
    const system::HeteroStats a = donor.stats();
    const system::HeteroStats b = fresh.stats();
    if (!st.ok() || a.host_cycles != b.host_cycles ||
        a.cluster_cycles != b.cluster_cycles || a.wire_bytes != b.wire_bytes) {
      std::fprintf(stderr, "%s: restored node differs from the saved one\n",
                   s.label.c_str());
      t.consistent = false;
    }
  }
  set(m, "snapshot.bytes", median(bytes));
  set(m, "snapshot.save_ms", median(save_ms));
  set(m, "snapshot.restore_ms", median(restore_ms));

  if (!multi) {
    // The first shape with attach_trace sinks vs without.
    std::vector<double> plain, traced;
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = Clock::now();
      const CosimRun a = run_cosim_op(shapes[0], false);
      plain.push_back(ms_since(t0));
      trace::EventTrace events;
      trace::MetricsRegistry metrics;
      t0 = Clock::now();
      const CosimRun b = run_cosim_op(shapes[0], false, {&events, &metrics});
      traced.push_back(ms_since(t0));
      if (a.ob.digest() != b.ob.digest()) t.consistent = false;
    }
    set(m, "trace.attached_overhead_frac", median(traced) / median(plain) - 1);
  }
  set(m, "bench.trace_overhead_frac", 1 - ratio(t.ops_per_s(), untraced.ops_per_s()));
  t.attempted += untraced.attempted;
  t.failed += untraced.failed;
  t.consistent = t.consistent && untraced.consistent;
  emit(o, t, layer_list(m));
  return 0;
}

// -------------------------------------------------------------------- fuzz

struct FuzzProgram {
  verif::GenProgram gp;
  /// Golden final register file (single-core programs), as bytes.
  std::vector<u8> golden_regs;
};

std::vector<u8> reg_bytes(const std::array<u32, isa::kNumRegs>& regs) {
  std::vector<u8> b;
  for (u32 r : regs) {
    for (int i = 0; i < 4; ++i) b.push_back(static_cast<u8>(r >> (8 * i)));
  }
  return b;
}

cluster::ClusterParams fuzz_params(const verif::GenProgram& gp) {
  cluster::ClusterParams p;
  p.num_cores = gp.num_cores;
  p.core_config = gp.config;
  return p;
}

int run_fuzz(const Options& o, u32 programs) {
  if (o.tiny) programs = 6;
  std::vector<FuzzProgram> progs;
  std::vector<double> gen_us, golden_us;
  SetupTimer setup([&] {
    progs.clear();
    gen_us.clear();
    golden_us.clear();
    verif::CampaignParams cp;
    cp.seed = o.seed;
    u32 singles = 0, stress = 0;
    for (u32 i = 0; i < programs; ++i) {
      // The ulp_fuzz mix: five single-core programs per stress program.
      const bool is_stress = i % 6 == 5;
      const verif::GenParams gen =
          verif::campaign_member(cp, is_stress ? stress++ : singles++, is_stress);
      FuzzProgram fp;
      auto t0 = Clock::now();
      fp.gp = verif::generate(gen);
      gen_us.push_back(ms_since(t0) * 1e3);
      if (!is_stress) {
        verif::Golden golden;
        t0 = Clock::now();
        golden.run(fp.gp.program).or_throw();
        golden_us.push_back(ms_since(t0) * 1e3);
        fp.golden_regs = flipped(reg_bytes(golden.regs()), o.flip);
      }
      progs.push_back(std::move(fp));
    }
  });

  std::vector<size_t> mix(progs.size());
  for (size_t i = 0; i < mix.size(); ++i) mix[i] = i;
  std::vector<std::optional<u64>> cycles(progs.size());
  std::vector<double> check_ms(progs.size(), 0);
  ClusterCounters cc;
  auto op = [&](size_t i, bool traced) {
    const FuzzProgram& fp = progs[i];
    OpResult res;
    const auto t0 = Clock::now();
    const verif::DiffResult d =
        verif::check_program(fp.gp, nullptr, kFuzzMaxCycles, true);
    res.ms = ms_since(t0);
    if (!d.pass) std::fprintf(stderr, "program %zu: %s\n", i, d.detail.c_str());
    // Untimed: the program on the default path, for the digest and the
    // benchmark's own check of the final registers against the golden run.
    cluster::Cluster cl(fuzz_params(fp.gp));
    cl.load_program(fp.gp.program);
    const u64 cyc = cl.run(kFuzzMaxCycles);
    const cluster::ClusterStats st = cl.stats();
    std::array<u32, isa::kNumRegs> regs{};
    for (u32 r = 0; r < isa::kNumRegs; ++r) regs[r] = cl.core(0).reg(r);
    const bool regs_ok =
        fp.gp.num_cores > 1 || reg_bytes(regs) == fp.golden_regs;
    if (!regs_ok) std::fprintf(stderr, "program %zu: registers differ from golden\n", i);
    Digest dg;
    dg.add(cyc).add(st.total_instrs()).add(d.pass).add(cl.events().eoc_flag());
    for (u32 r : regs) dg.add(r);
    res.digest = dg.h;
    res.ok = d.pass && regs_ok;
    res.instrs = st.total_instrs();
    if (!cycles[i]) cycles[i] = cyc;
    if (traced && check_ms[i] == 0) {
      check_ms[i] = res.ms;
      cc.add(st);
    }
    return res;
  };

  auto pass = [&](bool traced) { return serial_pass(mix, traced, op); };
  Tally t;
  Tally untraced;
  if (o.trace) {
    closed_loop(mix, progs.size(), o.seconds, setup, &untraced, &t, pass);
  } else {
    closed_loop(mix, progs.size(), o.seconds, setup, &t, nullptr, pass);
  }
  u64 pass_cycles = 0;
  for (const auto& c : cycles) pass_cycles += *c;
  if (!o.trace) {
    emit(o, t, end_to_end(t, setup, pass_cycles, std::nullopt, std::nullopt));
    return 0;
  }

  auto m = layer_template();
  ClusterProbe probe;
  std::vector<double> ref_ms, ff_ms, bc_ms, bcmc_ms, nocol_ms;
  std::vector<double> bytes, save_ms, restore_ms;
  for (size_t i = 0; i < progs.size(); ++i) {
    const verif::GenProgram& gp = progs[i].gp;
    auto t0 = Clock::now();
    const verif::Observation def = verif::run_on_cluster(gp, false, kFuzzMaxCycles);
    probe.run_ms.push_back(ms_since(t0));
    probe.cycles += def.cycles;
    for (const auto& log : def.retires) probe.instrs += log.size();
    t0 = Clock::now();
    (void)verif::run_on_cluster(gp, true, kFuzzMaxCycles);
    ref_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    (void)verif::run_on_cluster(gp, false, kFuzzMaxCycles, nullptr, false);
    ff_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    (void)verif::run_on_cluster(gp, false, kFuzzMaxCycles, nullptr, true, false);
    bc_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    (void)verif::run_on_cluster(gp, false, kFuzzMaxCycles, nullptr, true, true);
    bcmc_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    const verif::DiffResult nc =
        verif::check_program(gp, nullptr, kFuzzMaxCycles, false);
    nocol_ms.push_back(ms_since(t0));
    if (!nc.pass) t.consistent = false;

    // Cluster save at the snapshot column's split point, restored into a
    // fresh cluster that must finish on the same cycle.
    const u64 split = derive_seed(gp.seed, 0x534E4150) % (def.cycles + 1);
    cluster::Cluster donor(fuzz_params(gp));
    donor.load_program(gp.program);
    donor.advance(split);
    snapshot::Writer w;
    t0 = Clock::now();
    donor.save(w).or_throw();
    const std::vector<u8> image = w.finish();
    save_ms.push_back(ms_since(t0));
    bytes.push_back(static_cast<double>(image.size()));
    cluster::Cluster resumed(fuzz_params(gp));
    snapshot::Reader rd;
    rd.open(image).or_throw();
    t0 = Clock::now();
    const Status st = resumed.restore(rd);
    restore_ms.push_back(ms_since(t0));
    if (!st.ok() || resumed.run(kFuzzMaxCycles) != *cycles[i]) {
      std::fprintf(stderr, "program %zu: snapshot resume differs\n", i);
      t.consistent = false;
    }
  }
  set_cluster_layers(m, probe, cc);
  set(m, "verif.generate_us", median(gen_us));
  set(m, "verif.golden_us", median(golden_us));
  set(m, "verif.check_ms", median(t.op_ms));
  set(m, "verif.mode_ms.ref", median(ref_ms));
  set(m, "verif.mode_ms.ff", median(ff_ms));
  set(m, "verif.mode_ms.bc", median(bc_ms));
  set(m, "verif.mode_ms.bcmc", median(bcmc_ms));
  set(m, "verif.snapshot_column_share", 1 - ratio(sum(nocol_ms), sum(check_ms)));
  set(m, "snapshot.bytes", median(bytes));
  set(m, "snapshot.save_ms", median(save_ms));
  set(m, "snapshot.restore_ms", median(restore_ms));
  set(m, "bench.trace_overhead_frac", 1 - ratio(t.ops_per_s(), untraced.ops_per_s()));
  t.attempted += untraced.attempted;
  t.failed += untraced.failed;
  emit(o, t, layer_list(m));
  return 0;
}

// -------------------------------------------------------------------- main

/// Environment variables that select another stepping mode or plant a bug;
/// with any of them set the default-path numbers would measure something
/// else.
bool mode_env_clean() {
  bool clean = true;
  for (const char* name : {"ULP_REFERENCE_STEPPING", "ULP_BLOCK_CACHE",
                           "ULP_MC_WINDOWS", "ULP_FORCE_SWITCH_DISPATCH"}) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", name);
      clean = false;
    }
  }
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "ULP_INJECT_", 11) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
               "[--workers K] [--tiny] [--flip-expected]\n"
               "       perfbench --build-info\n"
               "workloads: analytic_campaign cosim_single cosim_multi fuzz\n");
  return 2;
}

bool parse_u64(const char* s, u64* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool workers_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    u64 v = 0;
    if (a == "--build-info") {
      std::printf("build_type=%s asserts=%s dispatch=%s nproc=%u\n",
                  ULP_BUILD_TYPE,
#ifdef NDEBUG
                  "off",
#else
                  "on",
#endif
                  core::block_dispatch_backend(), host_nproc());
      return 0;
    } else if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed" && parse_u64(value(), &v)) {
      o.seed = v;
    } else if (a == "--seconds" && parse_u64(value(), &v) && v >= 1 &&
               v <= 3600) {
      o.seconds = static_cast<double>(v);
    } else if (a == "--trace" && parse_u64(value(), &v) && v <= 1) {
      o.trace = v == 1;
    } else if (a == "--workers" && parse_u64(value(), &v) && v >= 1 &&
               v <= 1024) {
      o.workers = static_cast<u32>(v);
      workers_given = true;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--flip-expected") {
      o.flip = true;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  if (!mode_env_clean()) return 2;
  const u32 nproc = host_nproc();
  if (!workers_given) o.workers = std::min(o.workers, nproc);
  if (o.workers > nproc) {
    std::fprintf(stderr, "perfbench: %u workers exceed nproc=%u\n", o.workers,
                 nproc);
    return 2;
  }
  try {
    if (o.workload == "analytic_campaign") return run_analytic(o);
    // Mix weights (ops per pass of each shape, in shape order), chosen so
    // the p50 and p90 ranks fall mid-way into a band of shapes of similar
    // latency, never on the gap between two bands. Latencies are those of
    // the Release build on the host NOTES.md describes.
    if (o.workload == "cosim_single") {
      // cnn at 1 lane (shapes 4 and 6) twice: 20 ops per pass. The p50
      // rank falls among 15-20 ms ops, the p90 rank among 45-53 ms cnn ops.
      return run_cosim(o, false, {1, 1, 1, 1, 2, 1, 2, 1});
    }
    if (o.workload == "cosim_multi") {
      // 2-cluster matmul and strassen (0, 1, 4, 5; 43-57 ms) five times,
      // 4-cluster cnn at uniform clocks (10; 295 ms) twice and at
      // heterogeneous clocks (11; 323 ms) five times: 37 ops per pass. The
      // p50 rank falls among the 2-cluster strassen ops, the p90 rank among
      // the heterogeneous 4-cluster cnn ops.
      return run_cosim(o, true, {5, 5, 1, 1, 5, 5, 1, 1, 1, 1, 2, 5});
    }
    if (o.workload == "fuzz") return run_fuzz(o, 240);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}

// Repo benchmark driver: one long replay of one scheme on one Section IV
// trace, through the public MemSim API (README.md in this directory).
//
//   hmm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 times untraced MemSim cells (set-up, then a measured replay)
// for S seconds and prints the end-to-end metrics. --trace 1 alternates an
// untraced cell with the same cell replayed through the traced driver in
// mirror.cc, for S seconds, and prints the per-layer metrics. Either way
// the last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hh"
#include "fault/sim_error.hh"
#include "mirror.hh"
#include "sim/memsim.hh"
#include "trace/workloads.hh"

namespace {

using Clock = std::chrono::steady_clock;
using hmm::KiB;
using hmm::MiB;

/// Accesses per timed chunk of the measured replay.
constexpr std::uint64_t kChunk = 1000;

struct Workload {
  const char* name;
  const char* scheme;
  const char* trace;  ///< Section IV workload name
  std::uint64_t page_bytes;
  std::uint64_t swap_interval;
  std::uint64_t warmup;    ///< instant-mode warm-up accesses (set-up)
  std::uint64_t measured;  ///< measured accesses per cell
};

// Why each workload is here: README.md in this directory.
constexpr Workload kWorkloads[] = {
    {"paper-live-4m", "Live", "pgbench", 4 * MiB, 10'000, 400'000,
     4'000'000},
    {"os-4k-jbb", "N-1", "SPECjbb", 4 * KiB, 1'000, 400'000, 3'000'000},
    {"memcache-jbb", "MemCache", "SPECjbb", 4 * KiB, 1'000, 400'000,
     2'400'000},
};

[[nodiscard]] hmm::MemSimConfig config_of(const Workload& w) {
  // Section IV geometry, as bench::sec4_geometry builds it.
  hmm::MemSimConfig cfg;
  hmm::Geometry& g = cfg.controller.geom;
  g.total_bytes = hmm::params::kTotalMemory;
  g.on_package_bytes = hmm::params::kSec4OnPackageCapacity;
  g.page_bytes = w.page_bytes;
  g.sub_block_bytes = std::min<std::uint64_t>(hmm::params::kSubBlockSize,
                                              w.page_bytes);
  cfg.controller.swap_interval = w.swap_interval;
  cfg.controller.migration_enabled = true;
  cfg.scheme = w.scheme;
  return cfg;
}

[[nodiscard]] const hmm::WorkloadInfo& trace_of(const Workload& w) {
  for (const hmm::WorkloadInfo& t : hmm::section4_workloads())
    if (t.name == w.trace) return t;
  throw std::runtime_error(std::string("no Section IV workload ") + w.trace);
}

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread, user and system. It leaves out time
/// the thread spends descheduled, including time the hypervisor steals.
[[nodiscard]] double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

/// Whether another cell fits in the time budget, judging by the last one.
/// At least `min_cells` run, so that the reported values are medians.
class Budget {
 public:
  Budget(double seconds, std::uint64_t min_cells)
      : seconds_(seconds), min_cells_(min_cells) {}
  [[nodiscard]] bool another(std::uint64_t cells_done) {
    const double now = seconds_since(start_);
    const double last = now - last_end_;
    last_end_ = now;
    return cells_done < min_cells_ || now + last <= seconds_;
  }

 private:
  Clock::time_point start_ = Clock::now();
  double seconds_;
  std::uint64_t min_cells_;
  double last_end_ = 0;
};

[[nodiscard]] double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

[[nodiscard]] double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
[[nodiscard]] double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

[[nodiscard]] double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Simulated outcome of the measured window of one cell.
struct SimOutcome {
  std::uint64_t accesses = 0;
  double amat_cycles = 0;
  double ipc_proxy = 0;
  perfbench::SimState state;
};

/// Host timings of one untraced cell.
struct CellTimes {
  double setup_s = 0;
  double measured_s = 0;
  std::vector<double> chunk_ns;  ///< thread CPU ns/access of each chunk
  /// Process peak RSS after the replay, before the state checks copy it.
  double peak_rss_mib = 0;
};

/// One untraced cell: set-up (generator, MemSim, instant warm-up,
/// reset_stats), then the measured replay in timed chunks, then finish().
SimOutcome run_cell(const Workload& w, std::uint64_t seed, CellTimes& t) {
  const auto t0 = Clock::now();
  std::unique_ptr<hmm::SyntheticWorkload> gen = trace_of(w).make(seed);
  hmm::MemSim sim(config_of(w));
  sim.set_instant_migration(true);
  sim.run(*gen, w.warmup);
  sim.set_instant_migration(false);
  sim.reset_stats();
  const hmm::Cycle window_start = sim.result().end_time;
  t.setup_s = seconds_since(t0);

  const auto t1 = Clock::now();
  double c0 = thread_cpu_ns();
  for (std::uint64_t done = 0; done < w.measured;) {
    const std::uint64_t k = std::min(kChunk, w.measured - done);
    sim.run_chunk(*gen, k);
    done += k;
    const double c1 = thread_cpu_ns();
    t.chunk_ns.push_back((c1 - c0) / static_cast<double>(k));
    c0 = c1;
  }
  sim.finish();
  t.measured_s = seconds_since(t1);
  t.peak_rss_mib = peak_rss_mib();

  const hmm::RunResult r = sim.result();
  SimOutcome out;
  out.accesses = r.accesses;
  out.amat_cycles = r.avg_latency;
  out.ipc_proxy = static_cast<double>(r.accesses) /
                  static_cast<double>(r.end_time - window_start);
  out.state = perfbench::state_of(sim);
  return out;
}

/// Per-layer view of one traced cell (deltas over the measured window).
struct TracedOutcome {
  perfbench::Spans spans;  ///< replay loop only, finish() excluded
  perfbench::Counts counts;
  double measured_s = 0;
  hmm::schemes::SchemeMetrics before;
  hmm::schemes::SchemeMetrics after;
  double queue_delay_on = 0;
  double queue_delay_off = 0;
  double row_hit_rate_off = 0;
  perfbench::SimState state;
};

TracedOutcome run_traced(const Workload& w, std::uint64_t seed) {
  std::unique_ptr<hmm::SyntheticWorkload> gen = trace_of(w).make(seed);
  perfbench::MirrorSim sim(config_of(w));
  sim.set_instant(true);
  sim.run_chunk(*gen, w.warmup);
  sim.finish();
  sim.set_instant(false);
  sim.reset_stats();

  TracedOutcome out;
  out.before = sim.scheme().metrics();
  const auto t0 = Clock::now();
  sim.run_chunk(*gen, w.measured);
  out.spans = sim.spans();
  sim.finish();
  out.measured_s = seconds_since(t0);
  out.counts = sim.counts();
  out.after = sim.scheme().metrics();
  out.queue_delay_on = sim.on_package().mean_queue_delay();
  out.queue_delay_off = sim.off_package().mean_queue_delay();
  out.row_hit_rate_off = sim.off_package().row_hit_rate();
  out.state = sim.state();
  return out;
}

/// The last stdout line: the result object of the benchmark contract.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) fail(name + " is not finite");
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
  void print(std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("failed %llu of %llu cells (%.1f%%)\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                attempted == 0 ? 0.0
                               : 100.0 * static_cast<double>(failed) /
                                     static_cast<double>(attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

/// Checks an untraced cell's simulated outcome: every measured access
/// completed, and the outcome is bit-identical to the first cell's.
void check_cell(const Workload& w, const SimOutcome& cell,
                const std::optional<SimOutcome>& first, Report& rep) {
  if (cell.accesses != w.measured)
    rep.fail("cell completed " + std::to_string(cell.accesses) + " of " +
             std::to_string(w.measured) + " measured accesses");
  if (first) {
    const std::string d = perfbench::diff(first->state, cell.state);
    if (!d.empty()) rep.fail("repeated cell is not deterministic: " + d);
  }
}

void check_mirror(const SimOutcome& plain,
                  const perfbench::SimState& traced, Report& rep) {
  const std::string d = perfbench::diff(plain.state, traced);
  if (!d.empty()) rep.fail("traced driver does not match MemSim: " + d);
}

int run_untraced(const Workload& w, std::uint64_t seed, double seconds) {
  Report rep;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<SimOutcome> first;
  std::vector<double> setup_s;
  std::vector<double> aps;
  std::vector<double> p50_ns;
  std::vector<double> p99_ns;
  double rss_mib = 0;
  Budget budget(seconds, 3);
  while (budget.another(attempted)) {
    ++attempted;
    CellTimes t;
    try {
      SimOutcome cell = run_cell(w, seed, t);
      check_cell(w, cell, first, rep);
      if (!first) {
        first = std::move(cell);
        rss_mib = t.peak_rss_mib;
      }
    } catch (const hmm::fault::SimError& e) {
      ++failed;
      rep.fail(std::string("cell raised SimError: ") + e.what());
      continue;
    }
    setup_s.push_back(t.setup_s);
    aps.push_back(static_cast<double>(w.measured) / t.measured_s);
    p50_ns.push_back(quantile(t.chunk_ns, 0.50));
    p99_ns.push_back(quantile(t.chunk_ns, 0.99));
    std::printf("cell %llu: set-up %.3f s, measured %.3f s, "
                "%.0f accesses/s, p50 %.1f ns, p99 %.1f ns\n",
                static_cast<unsigned long long>(attempted), t.setup_s,
                t.measured_s, aps.back(), p50_ns.back(), p99_ns.back());
  }
  if (!first) {
    rep.print(attempted, failed);
    return 1;
  }
  // A short traced replay must reproduce MemSim bit for bit in every run.
  Workload small = w;
  small.warmup = 20'000;
  small.measured = 50'000;
  try {
    CellTimes unused;
    check_mirror(run_cell(small, seed, unused),
                 run_traced(small, seed).state, rep);
  } catch (const hmm::fault::SimError& e) {
    rep.fail(std::string("mirror check raised SimError: ") + e.what());
  }

  const std::uint64_t chunks = (w.measured + kChunk - 1) / kChunk;
  std::printf("%s seed %llu: %llu cells of %llu chunks of %llu accesses; "
              "each cell's p99 has %llu chunks beyond it\n",
              w.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(chunks),
              static_cast<unsigned long long>(kChunk),
              static_cast<unsigned long long>(chunks / 100));
  rep.add("accesses_per_s", median(aps), "1/s");
  // The host drifts between fast and slow states for seconds at a time.
  // A median over cells, or over the pooled chunks, then follows whichever
  // state held most of the run and flips between them; the mean of the
  // per-cell medians weighs each state by its share of the run.
  //
  // Chunks are timed in thread CPU time: on wall time, a 1000-access chunk
  // (about 1 ms) that the hypervisor deschedules for 10 ms or more lands
  // in the tail, and the p99 then counts the host's steal rate rather than
  // the program. Bursts of host slowness that CPU time still sees hit some
  // cells and not others, and lift those cells' p99 by up to 50%. Every
  // cell replays the same stream, so a tail the program causes shows in
  // every cell; the lower quartile over cells of the per-cell p99 keeps
  // that tail and drops the bursts.
  rep.add("ns_per_access_p50", mean(p50_ns), "ns");
  rep.add("ns_per_access_p99", quantile(std::move(p99_ns), 0.25), "ns");
  rep.add("setup_s", median(setup_s), "s");
  rep.add("peak_rss_mib", rss_mib, "MiB");
  rep.add("sim_amat_cycles", first->amat_cycles, "cycles");
  rep.add("sim_ipc_proxy", first->ipc_proxy, "1/cycle");
  rep.print(attempted, failed);
  return 0;
}

/// Host ns per measured access of each traced layer; sim.glue is the
/// replay loop's self time, the loop minus every other span.
std::vector<std::pair<const char*, double>> layer_ns(
    const perfbench::Spans& s, std::uint64_t accesses) {
  const double n = static_cast<double>(accesses);
  const std::uint64_t children = s.next + s.on_access + s.bg_completion +
                                 s.translate_idle + s.submit + s.drain +
                                 s.take;
  const std::uint64_t glue = s.loop > children ? s.loop - children : 0;
  return {
      {"trace.next_ns", static_cast<double>(s.next) / n},
      {"scheme.on_access_ns", static_cast<double>(s.on_access) / n},
      {"scheme.bg_completion_ns", static_cast<double>(s.bg_completion) / n},
      {"dram.submit_ns", static_cast<double>(s.submit) / n},
      {"dram.drain_ns", static_cast<double>(s.drain) / n},
      {"dram.take_ns", static_cast<double>(s.take) / n},
      {"sim.glue_ns", static_cast<double>(glue) / n},
  };
}

/// Simulated per-layer counts over the measured window of a traced cell.
void add_layer_counts(const Workload& w, const TracedOutcome& tr,
                      Report& rep) {
  // Scheme counters span warm-up too (reset_stats leaves them), so the
  // window's values are before/after deltas. Every step calls on_access
  // once, so the warm-up and window lengths are the access counts behind
  // the cumulative on-package fractions.
  const double a0 = static_cast<double>(w.warmup);
  const double n = static_cast<double>(w.measured);
  const double on_hits =
      std::round(tr.after.on_package_fraction * (a0 + n) -
                 tr.before.on_package_fraction * a0);
  rep.add("scheme.swaps",
          static_cast<double>(tr.after.swaps - tr.before.swaps), "count");
  rep.add("scheme.migrated_bytes",
          static_cast<double>(tr.after.migrated_bytes -
                              tr.before.migrated_bytes),
          "bytes");
  rep.add("scheme.on_package_fraction", on_hits / n, "fraction");

  const perfbench::Counts& c = tr.counts;
  rep.add("dram.demand_requests",
          static_cast<double>(c.demand_completions), "count");
  rep.add("dram.background_requests",
          static_cast<double>(c.background_completions), "count");
  rep.add("dram.drain_calls", static_cast<double>(c.drain_calls), "count");
  rep.add("dram.empty_drain_fraction",
          static_cast<double>(c.empty_rounds) /
              static_cast<double>(c.drain_rounds),
          "fraction");
  rep.add("dram.queue_delay_on_cycles", tr.queue_delay_on, "cycles");
  rep.add("dram.queue_delay_off_cycles", tr.queue_delay_off, "cycles");
  rep.add("dram.row_hit_rate_off", tr.row_hit_rate_off, "fraction");
  rep.add("sim.pump_rounds", static_cast<double>(c.pump_rounds), "count");
  rep.add("sim.throttle_slips", static_cast<double>(c.throttle_slips),
          "count");
}

/// Alternates an untraced and a traced replay of the same cell until
/// `seconds` have passed; each traced replay must match its untraced
/// twin bit for bit.
int run_traced_layers(const Workload& w, std::uint64_t seed,
                      double seconds) {
  Report rep;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<SimOutcome> first;
  std::optional<TracedOutcome> first_traced;
  std::vector<double> plain_aps;
  std::vector<double> traced_aps;
  std::vector<std::pair<const char*, std::vector<double>>> layers;
  const double n = static_cast<double>(w.measured);
  Budget budget(seconds, 2);
  while (budget.another(attempted)) {
    ++attempted;
    try {
      CellTimes t;
      SimOutcome plain = run_cell(w, seed, t);
      check_cell(w, plain, first, rep);
      TracedOutcome tr = run_traced(w, seed);
      check_mirror(plain, tr.state, rep);
      plain_aps.push_back(n / t.measured_s);
      traced_aps.push_back(n / tr.measured_s);
      const auto ns = layer_ns(tr.spans, w.measured);
      if (layers.empty())
        for (const auto& [name, v] : ns) layers.push_back({name, {}});
      for (std::size_t i = 0; i < ns.size(); ++i)
        layers[i].second.push_back(ns[i].second);
      std::printf("pair %llu: %.0f accesses/s untraced, %.0f traced\n",
                  static_cast<unsigned long long>(attempted),
                  plain_aps.back(), traced_aps.back());
      if (!first) first = std::move(plain);
      if (!first_traced) first_traced = std::move(tr);
    } catch (const hmm::fault::SimError& e) {
      ++failed;
      rep.fail(std::string("cell raised SimError: ") + e.what());
    }
  }
  if (!first_traced) {
    rep.print(attempted, failed);
    return 1;
  }
  for (const auto& [name, v] : layers) rep.add(name, median(v), "ns");
  add_layer_counts(w, *first_traced, rep);
  rep.add("tracing_overhead_fraction",
          1.0 - median(traced_aps) / median(plain_aps), "fraction");
  rep.print(attempted, failed);
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: hmm_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

[[nodiscard]] std::uint64_t parse_u64(const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (*v == '\0' || *end != '\0' || *v == '-')
    usage((std::string("bad value for ") + flag).c_str());
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::optional<std::uint64_t> seed;
  std::uint64_t seconds = 0;
  std::optional<std::uint64_t> trace;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      for (const Workload& k : kWorkloads)
        if (std::strcmp(k.name, v) == 0) w = &k;
      if (w == nullptr) usage((std::string("unknown workload ") + v).c_str());
    } else if (flag == "--seed") {
      seed = parse_u64("--seed", v);
    } else if (flag == "--seconds") {
      seconds = parse_u64("--seconds", v);
    } else if (flag == "--trace") {
      trace = parse_u64("--trace", v);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (w == nullptr || !seed || seconds == 0 || !trace || *trace > 1)
    usage("--workload, --seed, --seconds (> 0) and --trace 0|1 are required");
  const auto secs = static_cast<double>(seconds);
  return *trace == 1 ? run_traced_layers(*w, *seed, secs)
                     : run_untraced(*w, *seed, secs);
}

#include "mirror.hh"

#include <algorithm>
#include <cstring>

#include "fault/sim_error.hh"
#include "schemes/registry.hh"

namespace perfbench {

using hmm::Cycle;
using hmm::DramCompletion;
using hmm::DramSystem;
using hmm::Priority;
using hmm::Region;

namespace {

/// Adds the host time of its own lifetime to one Spans field.
class Span {
 public:
  explicit Span(std::uint64_t& acc)
      : acc_(acc), start_(std::chrono::steady_clock::now()) {}
  ~Span() {
    acc_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t& acc_;
  std::chrono::steady_clock::time_point start_;
};

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

SimState pack(const hmm::RunResult& r, const hmm::schemes::MemoryScheme& s,
              const DramSystem& on, const DramSystem& off) {
  SimState st;
  st.fields = {
      {"accesses", r.accesses},
      {"avg_latency", bits(r.avg_latency)},
      {"avg_read_latency", bits(r.avg_read_latency)},
      {"avg_write_latency", bits(r.avg_write_latency)},
      {"avg_on_latency", bits(r.avg_on_latency)},
      {"avg_off_latency", bits(r.avg_off_latency)},
      {"p99_latency", bits(r.p99_latency)},
      {"end_time", r.end_time},
      {"on_package_fraction", bits(r.on_package_fraction)},
      {"swaps", r.swaps},
      {"migrated_bytes", r.migrated_bytes},
      {"os_stall_cycles", r.os_stall_cycles},
      {"swap_aborts", r.swap_aborts},
      {"on_queue_delay", bits(on.mean_queue_delay())},
      {"off_queue_delay", bits(off.mean_queue_delay())},
      {"on_row_hit_rate", bits(on.row_hit_rate())},
      {"off_row_hit_rate", bits(off.row_hit_rate())},
      {"on_demand_bytes", on.demand_bytes()},
      {"off_demand_bytes", off.demand_bytes()},
      {"on_background_bytes", on.background_bytes()},
      {"off_background_bytes", off.background_bytes()},
  };
  hmm::snap::Writer w;
  s.save(w);
  on.save(w);
  off.save(w);
  st.snapshot = w.take();
  return st;
}

}  // namespace

SimState state_of(hmm::MemSim& sim) {
  return pack(sim.result(), sim.scheme(), sim.on_package(),
              sim.off_package());
}

std::string diff(const SimState& a, const SimState& b) {
  for (std::size_t i = 0; i < a.fields.size() && i < b.fields.size(); ++i)
    if (a.fields[i] != b.fields[i])
      return std::string(a.fields[i].first) + " differs";
  if (a.fields.size() != b.fields.size()) return "field lists differ";
  if (a.snapshot != b.snapshot) return "scheme/DRAM snapshot bytes differ";
  return {};
}

MirrorSim::MirrorSim(const hmm::MemSimConfig& cfg)
    : cfg_(cfg),
      on_(DramSystem::make(Region::OnPackage, cfg.policy)),
      off_(DramSystem::make(Region::OffPackage, cfg.policy)) {
  HMM_CHECK(cfg.fault.empty() && !cfg.ras.enabled &&
                cfg.audit_interval == 0 && cfg.max_wall_seconds == 0 &&
                cfg.force == hmm::MemSimConfig::Force::None,
            "the traced replay mirrors the default configuration only");
  scheme_ = hmm::schemes::make_scheme(
      cfg.scheme.empty() ? hmm::to_string(cfg.controller.design)
                         : cfg.scheme,
      hmm::schemes::SchemeConfig{cfg.controller, cfg.cache_fraction}, on_,
      off_);
}

void MirrorSim::drain_until(DramSystem& sys, Cycle now) {
  ++counts_.drain_calls;
  Span s(spans_.drain);
  sys.drain_until(now);
}

Cycle MirrorSim::drain_all(DramSystem& sys, Cycle upto) {
  ++counts_.drain_calls;
  Span s(spans_.drain);
  return sys.drain_all(upto);
}

bool MirrorSim::take_round(std::vector<DramCompletion>& a,
                           std::vector<DramCompletion>& b) {
  {
    Span s(spans_.take);
    a = on_.take_completions();
    b = off_.take_completions();
  }
  ++counts_.drain_rounds;
  const bool empty = a.empty() && b.empty();
  if (empty) ++counts_.empty_rounds;
  for (const auto& c : a) handle_completion(c, Region::OnPackage);
  for (const auto& c : b) handle_completion(c, Region::OffPackage);
  return !empty;
}

bool MirrorSim::background_idle() {
  Span s(spans_.translate_idle);
  return scheme_->background_idle();
}

void MirrorSim::check_wedged() {
  if (background_idle()) return;
  if (scheme_->in_flight_chunks() != 0) return;
  if (on_.backlog() != 0 || off_.backlog() != 0) return;
  throw hmm::fault::SimError(
      hmm::fault::SimErrorKind::Watchdog,
      std::string("migration engine wedged mid-swap (design ") +
          scheme_->name() + "): simulated time cannot advance");
}

void MirrorSim::handle_completion(const DramCompletion& c, Region region) {
  if (c.priority == Priority::Background) {
    ++counts_.background_completions;
    Span s(spans_.bg_completion);
    scheme_->on_background_completion(c, region);
    return;
  }
  auto& map = region == Region::OnPackage ? demand_on_ : demand_off_;
  const auto it = map.find(c.id);
  if (it == map.end()) return;
  ++counts_.demand_completions;
  const Outstanding o = it->second;
  map.erase(it);

  const DramSystem& sys = region == Region::OnPackage ? on_ : off_;
  const double lat =
      static_cast<double>(c.finish - o.issued + sys.wire_overhead());
  latency_.add(lat);
  latency_hist_.add(static_cast<std::uint64_t>(lat));
  (o.is_read ? read_latency_ : write_latency_).add(lat);
  (region == Region::OnPackage ? on_latency_ : off_latency_).add(lat);
}

void MirrorSim::pump(Cycle now) {
  std::vector<DramCompletion> a;
  std::vector<DramCompletion> b;
  for (int guard = 0; guard < 1000; ++guard) {
    ++counts_.pump_rounds;
    drain_until(on_, now);
    drain_until(off_, now);
    if (!take_round(a, b)) return;
  }
}

Cycle MirrorSim::force_migration_idle(Cycle now) {
  std::vector<DramCompletion> a;
  std::vector<DramCompletion> b;
  int guard = 0;
  while (!background_idle() && ++guard < 1'000'000) {
    const Cycle t = std::max(drain_all(on_, now), drain_all(off_, now));
    const bool took = take_round(a, b);
    now = std::max(now, t);
    if (!took) {
      check_wedged();
      break;
    }
  }
  if (!background_idle() && guard >= 1'000'000)
    throw hmm::fault::SimError(hmm::fault::SimErrorKind::Watchdog,
                               "swap did not finish within the event budget");
  return now;
}

void MirrorSim::throttle(DramSystem& sys, Cycle& now) {
  int guard = 0;
  while (sys.demand_backlog() >= cfg_.max_demand_backlog &&
         ++guard < 1'000'000) {
    ++counts_.throttle_slips;
    const Cycle step = 200;
    slip_ += step;
    now += step;
    pump(now);
  }
  if (sys.demand_backlog() >= cfg_.max_demand_backlog)
    throw hmm::fault::SimError(hmm::fault::SimErrorKind::Watchdog,
                               "demand backlog refuses to drain");
}

void MirrorSim::step(const hmm::TraceRecord& r) {
  Cycle now = std::max(r.timestamp + slip_, last_now_);
  pump(now);

  const Cycle issue_time = now;
  hmm::schemes::SchemeDecision d;
  {
    Span s(spans_.on_access);
    d = scheme_->on_access(r.addr, r.type, now);
  }
  if (d.stall_until_idle) {
    blocked_until_ = std::max(blocked_until_, force_migration_idle(now));
    Span s(spans_.translate_idle);
    d.route = scheme_->translate(r.addr);
  }
  if (blocked_until_ > now) d.extra_latency += blocked_until_ - now;

  DramSystem& sys = d.route.region == Region::OnPackage ? on_ : off_;
  throttle(sys, now);

  hmm::RequestId id = 0;
  {
    Span s(spans_.submit);
    id = sys.submit(d.route.mach, 64, r.type, Priority::Demand,
                    now + d.extra_latency);
  }
  auto& map = d.route.region == Region::OnPackage ? demand_on_ : demand_off_;
  map.emplace(id, Outstanding{issue_time, d.extra_latency,
                              r.type == hmm::AccessType::Read});
  last_now_ = now;
}

void MirrorSim::run_chunk(hmm::SyntheticWorkload& w, std::uint64_t n) {
  Span loop(spans_.loop);
  for (std::uint64_t i = 0; i < n; ++i) {
    hmm::TraceRecord r;
    {
      Span s(spans_.next);
      r = w.next();
    }
    step(r);
  }
}

void MirrorSim::finish() {
  std::vector<DramCompletion> a;
  std::vector<DramCompletion> b;
  int guard = 0;
  Cycle end = std::max(last_now_, end_time_);
  for (;;) {
    const Cycle t = std::max(drain_all(on_, end), drain_all(off_, end));
    end = std::max(end, t);
    if (!take_round(a, b) || ++guard > 1'000'000) break;
  }
  end_time_ = end;
  check_wedged();
}

void MirrorSim::reset_stats() {
  on_.reset_stats();
  off_.reset_stats();
  latency_.reset();
  read_latency_.reset();
  write_latency_.reset();
  on_latency_.reset();
  off_latency_.reset();
  latency_hist_.reset();
  spans_ = Spans{};
  counts_ = Counts{};
}

SimState MirrorSim::state() const {
  hmm::RunResult r;
  const hmm::schemes::SchemeMetrics m = scheme_->metrics();
  r.accesses = latency_.count();
  r.avg_latency = latency_.mean();
  r.avg_read_latency = read_latency_.mean();
  r.avg_write_latency = write_latency_.mean();
  r.avg_on_latency = on_latency_.mean();
  r.avg_off_latency = off_latency_.mean();
  r.p99_latency = static_cast<double>(latency_hist_.quantile(0.99));
  r.end_time = std::max(end_time_, last_now_);
  r.on_package_fraction = m.on_package_fraction;
  r.swaps = m.swaps;
  r.migrated_bytes = m.migrated_bytes;
  r.os_stall_cycles = m.os_stall_cycles;
  r.swap_aborts = m.swap_aborts;
  return pack(r, *scheme_, on_, off_);
}

}  // namespace perfbench

// Traced replay: MemSim::step re-expressed through public calls only, with
// a host-time span around every call into the trace, scheme and DRAM
// layers.
//
// The simulator itself carries no tracing, so this driver owns the two
// DramSystems and the scheme that MemSim would own and replays MemSim's
// step / pump / throttle / finish logic line for line. It covers the
// default configuration only (faults, RAS, audits, wall-clock deadline and
// force modes off). It is trusted only because it is checked: state()
// serialises everything a run leaves behind, and main.cc compares it byte
// for byte with an untraced MemSim run of the same seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "dram/dram_system.hh"
#include "schemes/scheme.hh"
#include "sim/memsim.hh"
#include "trace/generator.hh"

namespace perfbench {

/// Host nanoseconds spent inside each traced call, summed.
struct Spans {
  std::uint64_t loop = 0;  ///< the whole replay loop, trace generation too
  std::uint64_t next = 0;
  std::uint64_t on_access = 0;
  std::uint64_t bg_completion = 0;
  std::uint64_t translate_idle = 0;  ///< translate + background_idle
  std::uint64_t submit = 0;
  std::uint64_t drain = 0;  ///< drain_until + drain_all
  std::uint64_t take = 0;
};

/// Exact counts observed at the same call boundaries.
struct Counts {
  std::uint64_t demand_completions = 0;
  std::uint64_t background_completions = 0;
  std::uint64_t drain_calls = 0;   ///< drain_until / drain_all calls
  std::uint64_t drain_rounds = 0;  ///< drain-both-then-take rounds
  std::uint64_t empty_rounds = 0;  ///< rounds that took no completion
  std::uint64_t pump_rounds = 0;
  std::uint64_t throttle_slips = 0;
};

/// What a finished run leaves behind: the result fields MemSim reports
/// (doubles as their bit patterns) and the snapshot bytes of the scheme
/// and both DRAM regions.
struct SimState {
  std::vector<std::pair<const char*, std::uint64_t>> fields;
  std::vector<std::uint8_t> snapshot;
};

/// Empty when `a` and `b` are bit-identical, else the first difference.
[[nodiscard]] std::string diff(const SimState& a, const SimState& b);

/// State of an untraced MemSim run, in the form MirrorSim::state() gives.
[[nodiscard]] SimState state_of(hmm::MemSim& sim);

class MirrorSim {
 public:
  explicit MirrorSim(const hmm::MemSimConfig& cfg);

  void run_chunk(hmm::SyntheticWorkload& w, std::uint64_t n);
  void finish();
  /// MemSim::reset_stats, plus the span and count accumulators.
  void reset_stats();
  void set_instant(bool on) { scheme_->set_instant(on); }

  [[nodiscard]] const Spans& spans() const noexcept { return spans_; }
  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }
  [[nodiscard]] const hmm::schemes::MemoryScheme& scheme() const {
    return *scheme_;
  }
  [[nodiscard]] const hmm::DramSystem& on_package() const { return on_; }
  [[nodiscard]] const hmm::DramSystem& off_package() const { return off_; }
  [[nodiscard]] SimState state() const;

 private:
  struct Outstanding {
    hmm::Cycle issued = 0;
    hmm::Cycle extra = 0;
    bool is_read = true;
  };
  using Clock = std::chrono::steady_clock;

  void step(const hmm::TraceRecord& r);
  void pump(hmm::Cycle now);
  hmm::Cycle force_migration_idle(hmm::Cycle now);
  void throttle(hmm::DramSystem& sys, hmm::Cycle& now);
  void handle_completion(const hmm::DramCompletion& c, hmm::Region region);
  /// One drain-both-then-take round; false when it took nothing.
  bool take_round(std::vector<hmm::DramCompletion>& a,
                  std::vector<hmm::DramCompletion>& b);
  void drain_until(hmm::DramSystem& sys, hmm::Cycle now);
  hmm::Cycle drain_all(hmm::DramSystem& sys, hmm::Cycle upto);
  [[nodiscard]] bool background_idle();
  void check_wedged();

  hmm::MemSimConfig cfg_;
  hmm::DramSystem on_;
  hmm::DramSystem off_;
  std::unique_ptr<hmm::schemes::MemoryScheme> scheme_;
  std::unordered_map<hmm::RequestId, Outstanding> demand_on_;
  std::unordered_map<hmm::RequestId, Outstanding> demand_off_;
  hmm::Cycle slip_ = 0;
  hmm::Cycle last_now_ = 0;
  hmm::Cycle end_time_ = 0;
  hmm::Cycle blocked_until_ = 0;
  hmm::RunningStat latency_;
  hmm::RunningStat read_latency_;
  hmm::RunningStat write_latency_;
  hmm::RunningStat on_latency_;
  hmm::RunningStat off_latency_;
  hmm::Log2Histogram latency_hist_;
  Spans spans_;
  Counts counts_;
};

}  // namespace perfbench

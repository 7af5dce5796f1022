#include "runner/progress.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace hmm::runner {

namespace {

[[nodiscard]] std::string fmt_seconds(double s) {
  char buf[32];
  if (s >= 90.0) {
    std::snprintf(buf, sizeof buf, "%dm%02ds", static_cast<int>(s) / 60,
                  static_cast<int>(s) % 60);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fs", s);
  }
  return buf;
}

}  // namespace

ConsoleProgress::ConsoleProgress(std::ostream& os, std::size_t every)
    : os_(os), every_cfg_(every) {}

void ConsoleProgress::on_start(std::size_t total_cells, unsigned jobs) {
  start_ = std::chrono::steady_clock::now();
  failures_ = 0;
  every_ = every_cfg_ != 0 ? every_cfg_
                           : std::max<std::size_t>(1, total_cells / 20);
  os_ << "[runner] " << total_cells << " cells on " << jobs
      << (jobs == 1 ? " job\n" : " jobs\n");
}

void ConsoleProgress::on_cell_done(const CellResult& cell, std::size_t done,
                                   std::size_t total) {
  if (!cell.ok) ++failures_;
  if (done % every_ != 0 && done != total && cell.ok) return;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const double eta =
      done > 0 ? elapsed * static_cast<double>(total - done) /
                     static_cast<double>(done)
               : 0.0;
  os_ << "[runner] " << done << "/" << total << "  " << cell.key << "  "
      << fmt_seconds(cell.wall_seconds);
  if (!cell.ok) os_ << "  FAILED: " << cell.error;
  if (done != total) os_ << "  ETA " << fmt_seconds(eta);
  os_ << "\n";
}

void ConsoleProgress::on_finish(const RunningStat& wall,
                                double elapsed_seconds) {
  os_ << "[runner] done: " << wall.count() << " cells in "
      << fmt_seconds(elapsed_seconds) << " (per job: mean "
      << fmt_seconds(wall.mean()) << ", max " << fmt_seconds(wall.max())
      << ")";
  if (failures_ > 0) os_ << "  [" << failures_ << " FAILED]";
  os_ << "\n";
  os_.flush();
}

}  // namespace hmm::runner

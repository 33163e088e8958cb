// Shared helpers for the table/figure reproduction benches.
#pragma once

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/ascii_plot.hpp"
#include "util/atomic_file.hpp"
#include "util/table.hpp"

namespace craysim::bench {

/// Installs SIGINT/SIGTERM handlers that flush stdio and re-raise with the
/// default disposition, so an interrupted bench's partial console output
/// (tables, CSV) survives in pipes/log files while the exit status still
/// reports the signal. Telemetry artifacts need no handler: every save goes
/// through util::write_file_atomic, so an interruption can only ever leave
/// the previous complete file, never a truncated one. Idempotent.
inline void install_signal_flush_hooks() {
  static const auto handler = +[](int sig) {
    std::fflush(nullptr);  // async-signal-unsafe in general; acceptable for a dying bench
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  };
  std::signal(SIGINT, handler);
  std::signal(SIGTERM, handler);
}

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n%s\n"
              "================================================================\n",
              title.c_str());
}

/// Prints a rate series as an ASCII plot (MB/s) followed by its CSV dump.
inline void print_rate_figure(std::span<const double> bytes_per_s, const std::string& y_label,
                              const std::string& x_label, double bin_seconds,
                              bool emit_csv = true) {
  std::vector<double> mb_per_s(bytes_per_s.size());
  for (std::size_t i = 0; i < bytes_per_s.size(); ++i) mb_per_s[i] = bytes_per_s[i] / 1e6;
  PlotOptions options;
  options.y_label = y_label;
  options.x_label = x_label;
  options.x_scale = bin_seconds;
  options.height = 16;
  std::printf("%s", ascii_plot(mb_per_s, options).c_str());
  if (emit_csv) {
    std::printf("--- CSV ---\n%s--- end CSV ---\n",
                series_csv(mb_per_s, bin_seconds, x_label, y_label).c_str());
  }
}

/// Set once any claim line of this bench printed [DIVERGED].
inline bool& claim_diverged() {
  static bool diverged = false;
  return diverged;
}

/// Prints a claim line and records a divergence for exit_status().
inline void check(bool condition, const std::string& claim) {
  std::printf("[%s] %s\n", condition ? "REPRODUCED" : "DIVERGED", claim.c_str());
  if (!condition) claim_diverged() = true;
}

/// A bench's exit status: `status` (nonzero on an artifact or run failure),
/// or 1 when any check() diverged, so a claim that fails to reproduce fails
/// the run.
[[nodiscard]] inline int exit_status(int status = 0) {
  return status != 0 || claim_diverged() ? 1 : 0;
}

/// Consumes a "<flag> <value>" pair from the argument list (any position) and
/// returns the value, or "" when the flag is absent. The remaining arguments
/// are compacted so downstream parsers (e.g. google-benchmark's) never see
/// the flag.
inline std::string take_value_arg(int& argc, char** argv, std::string_view flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == flag) {
      std::string value = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      argv[argc] = nullptr;  // preserve the argv[argc] == nullptr convention
      return value;
    }
  }
  return {};
}

/// Consumes a "--json <path>" pair (the micro-bench snapshot destination).
inline std::string take_json_arg(int& argc, char** argv) {
  return take_value_arg(argc, argv, "--json");
}

/// Replaces-or-appends one named section of a flat metrics JSON file, e.g.
///   { "codec": { "BM_Decode_ns_per_op": 1234.5 }, "cache": { ... } }
/// Different benches each own one section of the same file (BENCH_micro.json)
/// and may run in any order. The parser only understands files this helper
/// wrote: top-level sections whose bodies are flat (no nested braces).
inline void write_json_section(const std::string& path, const std::string& section,
                               const std::vector<std::pair<std::string, double>>& values) {
  std::vector<std::pair<std::string, std::string>> sections;
  if (std::ifstream in{path}) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    std::size_t pos = text.find('{');  // skip the outer brace
    while (pos != std::string::npos) {
      const std::size_t name_start = text.find('"', pos + 1);
      if (name_start == std::string::npos) break;
      const std::size_t name_end = text.find('"', name_start + 1);
      const std::size_t body_start = text.find('{', name_end);
      if (name_end == std::string::npos || body_start == std::string::npos) break;
      const std::size_t body_end = text.find('}', body_start);
      if (body_end == std::string::npos) break;
      sections.emplace_back(text.substr(name_start + 1, name_end - name_start - 1),
                            text.substr(body_start + 1, body_end - body_start - 1));
      pos = body_end;
    }
  }

  std::string body;
  for (std::size_t i = 0; i < values.size(); ++i) {
    char number[64];
    std::snprintf(number, sizeof number, "%.6g", values[i].second);
    body += "\n    \"" + values[i].first + "\": " + number;
    if (i + 1 < values.size()) body += ",";
  }
  body += "\n  ";

  bool replaced = false;
  for (auto& existing : sections) {
    if (existing.first == section) {
      existing.second = body;
      replaced = true;
    }
  }
  if (!replaced) sections.emplace_back(section, body);

  std::string out = "{\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out += "  \"" + sections[i].first + "\": {" + sections[i].second + "}";
    out += (i + 1 < sections.size() ? ",\n" : "\n");
  }
  out += "}\n";
  // Atomic replace: a bench killed mid-write can't corrupt the sections the
  // other benches already contributed.
  util::write_file_atomic(path, out);
}

}  // namespace craysim::bench

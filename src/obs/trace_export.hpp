#pragma once
// Chrome-trace-event JSON export.
//
// Serializes a Timeline into the trace-event format understood by Perfetto
// (https://ui.perfetto.dev) and chrome://tracing: a `traceEvents` array of
// "M" metadata events naming the process and one thread per track, "X"
// complete spans (ts/dur in microseconds), "i" instants, and "C" counter
// samples. Both clock domains export identically — a simulated nexus++ run
// and a real exec-threads run open side by side in the same viewer.
//
// The run's report, rendered by the caller as a JSON object, is embedded
// under the top-level "report" key (ignored by viewers, read by tooling), so
// a trace file carries the numbers of the run it shows. This layer only
// copies it through and stays free of the engine's types.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/timeline.hpp"

namespace nexuspp::obs {

struct TraceExportOptions {
  std::uint32_t pid = 1;  ///< process id stamped on every event
  /// A JSON object written verbatim under "report"; omitted when empty.
  std::string report_json;
};

/// Writes `text` as a quoted JSON string: quote and backslash escaped, and
/// every byte below 0x20 written as a six-character u00XX escape.
void write_json_string(std::ostream& out, std::string_view text);

/// Writes the full trace-event JSON document to `out`.
void write_chrome_trace(const Timeline& timeline, std::ostream& out,
                        const TraceExportOptions& options = {});

/// Writes to `path`; returns false (and writes nothing) on open failure.
[[nodiscard]] bool save_chrome_trace(const Timeline& timeline,
                                     const std::string& path,
                                     const TraceExportOptions& options = {});

}  // namespace nexuspp::obs

#include "obs/trace_export.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace nexuspp::obs {

namespace {

/// Doubles rounded to 6 decimals of a microsecond (picosecond resolution)
/// so integer simulator timestamps round-trip exactly — coarser rounding
/// makes back-to-back spans look partially overlapped to schema checkers.
/// Written as plain decimal, never exponent form.
void write_us(std::ostream& out, double ns) {
  const double us = ns / 1000.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", us);
  out << buffer;
}

void write_event_prefix(std::ostream& out, bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "    ";
}

void write_metadata(std::ostream& out, bool& first, const char* name,
                    std::uint32_t pid, std::uint32_t tid,
                    const std::string& value) {
  write_event_prefix(out, first);
  out << "{\"ph\":\"M\",\"ts\":0,\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":\"" << name << "\",\"args\":{\"name\":";
  write_json_string(out, value);
  out << "}}";
}

}  // namespace

void write_json_string(std::ostream& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out << '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (byte < 0x20) {
      out << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xF];
    } else {
      out << c;
    }
  }
  out << '"';
}

void write_chrome_trace(const Timeline& timeline, std::ostream& out,
                        const TraceExportOptions& options) {
  const std::uint32_t pid = options.pid;
  out << "{\n  \"displayTimeUnit\": \"ns\",\n";
  out << "  \"otherData\": {\"clock\": \"" << timeline.clock << "\"},\n";
  if (!options.report_json.empty()) {
    out << "  \"report\": " << options.report_json << ",\n";
  }
  out << "  \"traceEvents\": [\n";

  bool first = true;
  write_metadata(out, first, "process_name", pid, 0,
                 timeline.process + " [" + timeline.clock + " clock]");
  for (std::size_t t = 0; t < timeline.tracks.size(); ++t) {
    write_metadata(out, first, "thread_name", pid,
                   static_cast<std::uint32_t>(t + 1), timeline.tracks[t].name);
  }

  for (std::size_t t = 0; t < timeline.tracks.size(); ++t) {
    const std::uint32_t tid = static_cast<std::uint32_t>(t + 1);
    for (const TimelineEvent& event : timeline.tracks[t].events) {
      write_event_prefix(out, first);
      const char* name = to_string(event.kind);
      if (is_counter(event.kind)) {
        out << "{\"ph\":\"C\",\"ts\":";
        write_us(out, event.ts_ns);
        out << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"name\":\""
            << name << "\",\"cat\":\"counter\",\"args\":{\"value\":"
            << event.arg << "}}";
      } else if (is_span(event.kind)) {
        out << "{\"ph\":\"X\",\"ts\":";
        write_us(out, event.ts_ns);
        out << ",\"dur\":";
        write_us(out, event.dur_ns);
        out << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"name\":\""
            << name << "\",\"cat\":\"" << category(event.kind)
            << "\",\"args\":{\"task\":" << event.task << "}}";
      } else {
        out << "{\"ph\":\"i\",\"ts\":";
        write_us(out, event.ts_ns);
        out << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"s\":\"t\""
            << ",\"name\":\"" << name << "\",\"cat\":\""
            << category(event.kind) << "\",\"args\":{\"task\":" << event.task;
        if (event.kind == EventKind::kReady) {
          if (event.arg == kNoPred) {
            out << ",\"pred\":\"none\"";
          } else {
            out << ",\"pred\":" << event.arg;
          }
        }
        out << "}}";
      }
    }
  }

  out << "\n  ],\n";
  out << "  \"otherStats\": {\"events\": " << timeline.total_events()
      << ", \"dropped\": " << timeline.total_dropped() << "}\n";
  out << "}\n";
}

bool save_chrome_trace(const Timeline& timeline, const std::string& path,
                       const TraceExportOptions& options) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  write_chrome_trace(timeline, out, options);
  return out.good();
}

}  // namespace nexuspp::obs

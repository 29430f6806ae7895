#pragma once
// Trace serialization: a human-readable text format and a compact binary
// framing, both round-trip safe and versioned. Lets users capture a
// workload once (from any engine run, via engine::run_captured or
// `trace_tool capture`) and replay it bit-identically many times.
//
// The normative specification of both formats — header fields, record
// layouts, the text/binary correspondence, and the forward-compatibility
// rules — is docs/TRACE_FORMAT.md. Summary of the current version (v2):
//
// Text ("nexus-trace v2", extension ".nxt"):
//   # comment lines and blank lines are ignored
//   nexus-trace v2
//   meta <key> <value...>                        (0+ lines, before any task)
//   task <serial> <fn> <exec_ns> <read_bytes> <write_bytes> <n_params>
//   param <addr-hex> <size> <in|out|inout>       (exactly n_params times)
//
// Binary (extension ".nxb"): magic "NXTRC2\0\0"; u32 meta count, each
// entry a length-prefixed key and value; u64 task count; packed records.
//
// Readers accept v1 (the meta-less predecessor) and v2, and reject traces
// written by a newer format version with a descriptive TraceIoError —
// malformed, truncated, or version-mismatched input never crashes and
// never silently truncates the task list.

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "trace/trace.hpp"

namespace nexuspp::trace {

/// Newest format version this build writes; readers accept 1..kFormatVersion.
inline constexpr int kFormatVersion = 2;

/// Every reader-side failure (syntax, truncation, unsupported version,
/// unopenable file) surfaces as this exception with a message naming the
/// offending line/offset and what was expected.
class TraceIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void write_text(std::ostream& os, const Trace& trace);
[[nodiscard]] Trace read_text_trace(std::istream& is);

void write_binary(std::ostream& os, const Trace& trace);
[[nodiscard]] Trace read_binary_trace(std::istream& is);

/// File helpers; format chosen by extension (".nxb" binary, anything else
/// text). Throws TraceIoError when the file cannot be opened/parsed.
void save(const std::string& path, const Trace& trace);
[[nodiscard]] Trace load_trace(const std::string& path);

}  // namespace nexuspp::trace

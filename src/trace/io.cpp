#include "trace/io.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <iomanip>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace nexuspp::trace {

namespace {

constexpr char kTextHeaderPrefix[] = "nexus-trace v";
// v1 magic: "NXTRC1\0\0"; v2 bumps the version digit. The first six bytes
// identify the family, byte 5 carries the version.
constexpr std::array<char, 8> kBinaryMagicV1 = {'N', 'X', 'T', 'R',
                                                'C', '1', 0,   0};
constexpr std::array<char, 8> kBinaryMagicV2 = {'N', 'X', 'T', 'R',
                                                'C', '2', 0,   0};

// Corruption guards: a damaged length field must produce a descriptive
// error, not an attempted multi-gigabyte allocation. Reservations are
// clamped to these; actual growth is driven by successfully parsed data.
constexpr std::uint64_t kMaxReserveTasks = 1u << 20;
constexpr std::uint64_t kMaxReserveParams = 1u << 12;
constexpr std::uint32_t kMaxMetaStringBytes = 1u << 20;
constexpr std::uint32_t kMaxMetaEntries = 1u << 16;

core::AccessMode parse_mode(const std::string& word, std::size_t line_no) {
  if (word == "in") return core::AccessMode::kIn;
  if (word == "out") return core::AccessMode::kOut;
  if (word == "inout") return core::AccessMode::kInOut;
  throw TraceIoError("trace line " + std::to_string(line_no) +
                     ": bad access mode '" + word + "'");
}

/// Parses "nexus-trace v<N>" and returns N; throws on anything else or an
/// unsupported version.
int parse_text_version(const std::string& line) {
  const std::size_t prefix_len = sizeof(kTextHeaderPrefix) - 1;
  if (line.compare(0, prefix_len, kTextHeaderPrefix) != 0) {
    throw TraceIoError("trace line 1: expected header '" +
                       std::string(kTextHeaderPrefix) + "<version>', got '" +
                       line + "'");
  }
  // Strictly digits after the 'v' (no sign, no whitespace, no suffix).
  const std::string digits = line.substr(prefix_len);
  bool well_formed = !digits.empty() && digits.size() <= 9;
  for (const char c : digits) {
    if (c < '0' || c > '9') well_formed = false;
  }
  const int version = well_formed ? std::stoi(digits) : 0;
  if (version <= 0) {
    throw TraceIoError("trace line 1: malformed version in header '" + line +
                       "'");
  }
  if (version > kFormatVersion) {
    throw TraceIoError(
        "trace: file is format v" + std::to_string(version) +
        ", but this reader supports v1..v" + std::to_string(kFormatVersion) +
        " — written by a newer nexuspp?");
  }
  return version;
}

template <typename T>
void put_raw(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T get_raw(std::istream& is, const char* what) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) {
    throw TraceIoError(std::string("binary trace: unexpected end of stream "
                                   "while reading ") +
                       what);
  }
  return value;
}

std::string get_string(std::istream& is, const char* what) {
  const auto len = get_raw<std::uint32_t>(is, what);
  if (len > kMaxMetaStringBytes) {
    throw TraceIoError(std::string("binary trace: implausible ") + what +
                       " length " + std::to_string(len) +
                       " (corrupt length field?)");
  }
  std::string s(len, '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  if (!is) {
    throw TraceIoError(
        std::string("binary trace: unexpected end of stream while reading ") +
        what);
  }
  return s;
}

void put_string(std::ostream& os, const std::string& s, const char* what) {
  if (s.size() > kMaxMetaStringBytes) {
    throw TraceIoError(std::string("binary trace: ") + what +
                       " exceeds the format's 1 MiB string limit");
  }
  put_raw<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void expect_eof(std::istream& is) {
  if (is.peek() != std::istream::traits_type::eof()) {
    throw TraceIoError(
        "binary trace: trailing bytes after the last declared record "
        "(truncated count field or concatenated traces?)");
  }
}

}  // namespace

// --- Text ---------------------------------------------------------------------

void write_text(std::ostream& os, const Trace& trace) {
  // TraceMeta::set (the class's only mutation path) enforces the key and
  // value syntax rules, so the meta block is serializable as-is.
  os << kTextHeaderPrefix << kFormatVersion << "\n";
  os << "# tasks: " << trace.tasks.size() << "\n";
  for (const auto& [key, value] : trace.meta.entries()) {
    os << "meta " << key << " " << value << "\n";
  }
  // 17 significant digits: enough for any picosecond count expressed in
  // fractional nanoseconds to round-trip exactly.
  os << std::setprecision(17);
  for (const auto& t : trace.tasks) {
    os << "task " << t.serial << " " << t.fn << " "
       << sim::to_ns(t.exec_time) << " " << t.read_bytes << " "
       << t.write_bytes << " " << t.params.size() << "\n";
    for (const auto& p : t.params) {
      os << "param " << std::hex << p.addr << std::dec << " " << p.size
         << " " << core::to_string(p.mode) << "\n";
    }
  }
}

Trace read_text_trace(std::istream& is) {
  Trace trace;
  std::string line;
  std::size_t line_no = 0;
  int version = 0;  // 0 = header not seen yet
  TaskRecord* current = nullptr;
  std::size_t params_expected = 0;

  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (version == 0) {
      version = parse_text_version(line);
      continue;
    }
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "task") {
      if (current != nullptr && current->params.size() != params_expected) {
        throw TraceIoError("trace line " + std::to_string(line_no) +
                           ": previous task declared " +
                           std::to_string(params_expected) +
                           " params but carries " +
                           std::to_string(current->params.size()));
      }
      TaskRecord rec;
      double exec_ns = 0.0;
      ls >> rec.serial >> rec.fn >> exec_ns >> rec.read_bytes >>
          rec.write_bytes >> params_expected;
      if (!ls) {
        throw TraceIoError("trace line " + std::to_string(line_no) +
                           ": malformed task record");
      }
      rec.exec_time = sim::ns_f(exec_ns);
      trace.tasks.push_back(std::move(rec));
      current = &trace.tasks.back();
    } else if (kind == "param") {
      if (current == nullptr) {
        throw TraceIoError("trace line " + std::to_string(line_no) +
                           ": param before any task");
      }
      core::Param p;
      std::string mode;
      ls >> std::hex >> p.addr >> std::dec >> p.size >> mode;
      if (!ls) {
        throw TraceIoError("trace line " + std::to_string(line_no) +
                           ": malformed param record");
      }
      p.mode = parse_mode(mode, line_no);
      if (current->params.size() >= params_expected) {
        throw TraceIoError("trace line " + std::to_string(line_no) +
                           ": more params than declared");
      }
      current->params.push_back(p);
    } else if (kind == "meta") {
      if (version < 2) {
        throw TraceIoError("trace line " + std::to_string(line_no) +
                           ": meta records require format v2 (file is v" +
                           std::to_string(version) + ")");
      }
      if (current != nullptr) {
        throw TraceIoError("trace line " + std::to_string(line_no) +
                           ": meta records must precede the first task");
      }
      std::string key;
      ls >> key;
      if (key.empty()) {
        throw TraceIoError("trace line " + std::to_string(line_no) +
                           ": meta record without a key");
      }
      std::string value;
      std::getline(ls, value);
      if (!value.empty() && value.front() == ' ') value.erase(0, 1);
      try {
        trace.meta.set(key, value);
      } catch (const std::invalid_argument& e) {
        throw TraceIoError("trace line " + std::to_string(line_no) + ": " +
                           e.what());
      }
    } else {
      throw TraceIoError("trace line " + std::to_string(line_no) +
                         ": unknown record '" + kind +
                         "' (new record kinds require a format version "
                         "bump; see docs/TRACE_FORMAT.md)");
    }
  }
  if (version == 0) {
    throw TraceIoError("trace: missing 'nexus-trace v<N>' header");
  }
  if (current != nullptr && current->params.size() != params_expected) {
    throw TraceIoError("trace: last task declared " +
                       std::to_string(params_expected) +
                       " params but carries " +
                       std::to_string(current->params.size()) +
                       " (truncated file?)");
  }
  return trace;
}

// --- Binary -------------------------------------------------------------------

namespace {

std::vector<TaskRecord> read_binary_records(std::istream& is) {
  const auto count = get_raw<std::uint64_t>(is, "task count");
  std::vector<TaskRecord> tasks;
  tasks.reserve(static_cast<std::size_t>(std::min(count, kMaxReserveTasks)));
  for (std::uint64_t i = 0; i < count; ++i) {
    TaskRecord t;
    t.serial = get_raw<std::uint64_t>(is, "task serial");
    t.fn = get_raw<std::uint64_t>(is, "task fn");
    t.exec_time = get_raw<sim::Time>(is, "task exec time");
    t.read_bytes = get_raw<std::uint64_t>(is, "task read bytes");
    t.write_bytes = get_raw<std::uint64_t>(is, "task write bytes");
    const auto n = get_raw<std::uint32_t>(is, "param count");
    t.params.reserve(std::min<std::uint64_t>(n, kMaxReserveParams));
    for (std::uint32_t p = 0; p < n; ++p) {
      core::Param param;
      param.addr = get_raw<core::Addr>(is, "param addr");
      param.size = get_raw<std::uint32_t>(is, "param size");
      const auto mode = get_raw<std::uint8_t>(is, "param mode");
      if (mode > static_cast<std::uint8_t>(core::AccessMode::kInOut)) {
        throw TraceIoError("binary trace: bad access mode byte " +
                           std::to_string(mode) + " in task " +
                           std::to_string(i));
      }
      param.mode = static_cast<core::AccessMode>(mode);
      t.params.push_back(param);
    }
    tasks.push_back(std::move(t));
  }
  expect_eof(is);
  return tasks;
}

}  // namespace

void write_binary(std::ostream& os, const Trace& trace) {
  const TraceMeta& meta = trace.meta;
  os.write(kBinaryMagicV2.data(), kBinaryMagicV2.size());
  if (meta.entries().size() > kMaxMetaEntries) {
    throw TraceIoError("binary trace: more than 65536 meta entries");
  }
  put_raw<std::uint32_t>(os,
                         static_cast<std::uint32_t>(meta.entries().size()));
  for (const auto& [key, value] : meta.entries()) {
    put_string(os, key, "meta key");
    put_string(os, value, "meta value");
  }
  put_raw<std::uint64_t>(os, trace.tasks.size());
  for (const auto& t : trace.tasks) {
    put_raw(os, t.serial);
    put_raw(os, t.fn);
    put_raw(os, t.exec_time);
    put_raw(os, t.read_bytes);
    put_raw(os, t.write_bytes);
    put_raw<std::uint32_t>(os, static_cast<std::uint32_t>(t.params.size()));
    for (const auto& p : t.params) {
      put_raw(os, p.addr);
      put_raw(os, p.size);
      put_raw<std::uint8_t>(os, static_cast<std::uint8_t>(p.mode));
    }
  }
}

Trace read_binary_trace(std::istream& is) {
  std::array<char, 8> magic{};
  is.read(magic.data(), magic.size());
  if (!is) {
    throw TraceIoError("binary trace: shorter than the 8-byte magic");
  }
  Trace trace;
  if (magic == kBinaryMagicV1) {
    // v1: no metadata section.
    trace.tasks = read_binary_records(is);
    return trace;
  }
  if (magic != kBinaryMagicV2) {
    // Distinguish "newer version of this format" from "not a trace": the
    // family magic followed by a version *digit* (§5 of the spec).
    std::array<char, 5> family = {'N', 'X', 'T', 'R', 'C'};
    if (std::memcmp(magic.data(), family.data(), family.size()) == 0 &&
        magic[5] >= '1' && magic[5] <= '9' && magic[6] == 0 &&
        magic[7] == 0) {
      throw TraceIoError(
          std::string("binary trace: file is format v") + magic[5] +
          ", but this reader supports v1..v" + std::to_string(kFormatVersion) +
          " — written by a newer nexuspp?");
    }
    throw TraceIoError("binary trace: bad magic (not a nexus trace file)");
  }
  const auto meta_count = get_raw<std::uint32_t>(is, "meta count");
  if (meta_count > kMaxMetaEntries) {
    throw TraceIoError("binary trace: implausible meta entry count " +
                       std::to_string(meta_count) +
                       " (corrupt count field?)");
  }
  for (std::uint32_t i = 0; i < meta_count; ++i) {
    const std::string key = get_string(is, "meta key");
    const std::string value = get_string(is, "meta value");
    try {
      trace.meta.set(key, value);
    } catch (const std::invalid_argument& e) {
      throw TraceIoError(std::string("binary trace: ") + e.what());
    }
  }
  trace.tasks = read_binary_records(is);
  return trace;
}

// --- Files --------------------------------------------------------------------

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void save(const std::string& path, const Trace& trace) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw TraceIoError("cannot open for writing: " + path);
  if (ends_with(path, ".nxb")) {
    write_binary(os, trace);
  } else {
    write_text(os, trace);
  }
  os.flush();
  if (!os) throw TraceIoError("write failed (disk full?): " + path);
}

Trace load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw TraceIoError("cannot open for reading: " + path);
  try {
    if (ends_with(path, ".nxb")) return read_binary_trace(is);
    return read_text_trace(is);
  } catch (const TraceIoError& e) {
    throw TraceIoError(path + ": " + e.what());
  }
}

}  // namespace nexuspp::trace

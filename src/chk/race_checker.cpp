#include "chk/race_checker.hpp"

#if defined(NEXUSPP_SCHEDCHECK)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace nexuspp::chk {

const char* to_string(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kAtomicLoad: return "atomic-load";
    case OpKind::kAtomicStore: return "atomic-store";
    case OpKind::kAtomicRmw: return "atomic-rmw";
    case OpKind::kAtomicCas: return "atomic-cas";
    case OpKind::kMutexLock: return "mutex-lock";
    case OpKind::kMutexUnlock: return "mutex-unlock";
    case OpKind::kCondWait: return "cond-wait";
    case OpKind::kCondNotify: return "cond-notify";
    case OpKind::kPlainRead: return "plain-read";
    case OpKind::kPlainWrite: return "plain-write";
    case OpKind::kYield: return "yield";
  }
  return "?";
}

namespace {

const char* kind_name(RaceReport::Kind kind) {
  switch (kind) {
    case RaceReport::Kind::kWriteWrite: return "write-write race";
    case RaceReport::Kind::kWriteRead: return "write-read race";
    case RaceReport::Kind::kReadWrite: return "read-write race";
  }
  return "?";
}

void append_access(std::ostringstream& os, const char* role,
                   const RaceAccess& access) {
  os << "  " << role << ": " << to_string(access.op) << " by thread T"
     << access.tid << " @ clock " << access.clock << " (" << access.file
     << ":" << access.line << ") locks held " << access.lockset << "\n";
}

}  // namespace

std::string RaceReport::to_string() const {
  std::ostringstream os;
  os << "nexuspp-schedcheck: " << kind_name(kind) << " on location A"
     << addr_token << "\n";
  append_access(os, "prior  ", prior);
  append_access(os, "current", current);
  return os.str();
}

RaceDetected::RaceDetected(RaceReport report)
    : report_(std::move(report)), message_(report_.to_string()) {}

RaceChecker::ThreadState& RaceChecker::thread(std::uint32_t tid) {
  return threads_.at(tid);
}

void RaceChecker::tick(std::uint32_t tid) noexcept {
  ++threads_[tid].vc.c[tid];
  ++events_;
}

std::uint32_t RaceChecker::token_for(const void* addr) {
  auto [it, inserted] =
      tokens_.emplace(addr, static_cast<std::uint32_t>(tokens_.size()));
  return it->second;
}

std::string RaceChecker::lockset_names(std::uint64_t lockset) const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (std::uint32_t bit = 0; bit < 64; ++bit) {
    if ((lockset >> bit) & 1u) {
      if (!first) os << ",";
      os << "M" << bit;
      first = false;
    }
  }
  os << "}";
  return os.str();
}

RaceAccess RaceChecker::stamp_to_access(std::uint32_t tid,
                                        const AccessStamp& stamp,
                                        OpKind fallback_op) const {
  RaceAccess access;
  access.op = stamp.valid ? stamp.op : fallback_op;
  access.tid = tid;
  access.clock = stamp.clock;
  access.file = stamp.file != nullptr ? stamp.file : "?";
  access.line = stamp.line;
  access.lockset = lockset_names(stamp.lockset);
  return access;
}

bool RaceChecker::emit(RaceReport::Kind kind, const void* addr,
                       RaceAccess prior, RaceAccess current) {
  RaceReport report;
  report.kind = kind;
  report.addr_token = token_for(addr);
  report.prior = std::move(prior);
  report.current = std::move(current);

  std::ostringstream key;
  key << static_cast<int>(kind) << "|" << report.addr_token << "|"
      << report.prior.file << ":" << report.prior.line << "|"
      << report.current.file << ":" << report.current.line;
  if (std::find(dedup_keys_.begin(), dedup_keys_.end(), key.str()) !=
      dedup_keys_.end()) {
    return false;
  }
  dedup_keys_.push_back(key.str());

  if (mode_ == Mode::kHalt) {
    std::fputs(report.to_string().c_str(), stderr);
    std::abort();
  }
  reports_.push_back(std::move(report));
  return true;
}

void RaceChecker::on_acquire(std::uint32_t tid, const void* addr,
                             OpKind /*op*/, const char* /*file*/,
                             std::uint32_t /*line*/) {
  tick(tid);
  threads_[tid].vc.join(atomics_[addr]);
}

void RaceChecker::on_release(std::uint32_t tid, const void* addr,
                             OpKind /*op*/, const char* /*file*/,
                             std::uint32_t /*line*/) {
  tick(tid);
  atomics_[addr].join(threads_[tid].vc);
}

void RaceChecker::on_mutex_acquire(std::uint32_t tid, const void* mutex,
                                   const char* /*file*/,
                                   std::uint32_t /*line*/) {
  tick(tid);
  threads_[tid].vc.join(mutexes_[mutex]);
  auto [it, inserted] = mutex_tokens_.emplace(
      mutex, static_cast<std::uint32_t>(mutex_tokens_.size()));
  if (it->second < 64) threads_[tid].lockset |= 1ull << it->second;
}

void RaceChecker::on_mutex_release(std::uint32_t tid, const void* mutex,
                                   const char* /*file*/,
                                   std::uint32_t /*line*/) {
  tick(tid);
  mutexes_[mutex].join(threads_[tid].vc);
  auto it = mutex_tokens_.find(mutex);
  if (it != mutex_tokens_.end() && it->second < 64) {
    threads_[tid].lockset &= ~(1ull << it->second);
  }
}

void RaceChecker::on_plain(std::uint32_t tid, const void* addr, bool is_write,
                           const char* file, std::uint32_t line) {
  tick(tid);
  ThreadState& self = threads_[tid];
  auto& shadow = plain_[addr];
  const OpKind op = is_write ? OpKind::kPlainWrite : OpKind::kPlainRead;
  const RaceAccess current{op, tid, self.vc.c[tid], file, line,
                           lockset_names(self.lockset)};

  bool fresh_report = false;
  if (shadow.write.valid && shadow.write_tid != tid &&
      !self.vc.covers(shadow.write_tid, shadow.write.clock)) {
    fresh_report |= emit(
        is_write ? RaceReport::Kind::kWriteWrite : RaceReport::Kind::kWriteRead,
        addr, stamp_to_access(shadow.write_tid, shadow.write, OpKind::kPlainWrite),
        current);
  }
  if (is_write) {
    for (std::uint32_t reader = 0; reader < kMaxThreads; ++reader) {
      const AccessStamp& read = shadow.reads[reader];
      if (!read.valid || reader == tid) continue;
      if (!self.vc.covers(reader, read.clock)) {
        fresh_report |= emit(RaceReport::Kind::kReadWrite, addr,
                             stamp_to_access(reader, read, OpKind::kPlainRead),
                             current);
      }
    }
    shadow.write_tid = tid;
    shadow.write = {self.vc.c[tid], file, line, op, self.lockset, true};
    shadow.reads = {};
  } else {
    shadow.reads[tid] = {self.vc.c[tid], file, line, op, self.lockset, true};
  }

  if (fresh_report && mode_ == Mode::kThrow) {
    throw RaceDetected(reports_.back());
  }
}

void RaceChecker::capture_clock(std::uint32_t tid, std::uint64_t* out) {
  tick(tid);
  for (std::uint32_t i = 0; i < kMaxThreads; ++i) {
    if (threads_[tid].vc.c[i] > out[i]) out[i] = threads_[tid].vc.c[i];
  }
}

void RaceChecker::adopt_clock(std::uint32_t tid, const std::uint64_t* in) {
  tick(tid);
  for (std::uint32_t i = 0; i < kMaxThreads; ++i) {
    if (in[i] > threads_[tid].vc.c[i]) threads_[tid].vc.c[i] = in[i];
  }
}

}  // namespace nexuspp::chk

#else  // !NEXUSPP_SCHEDCHECK — keep the TU non-empty (ISO C++ requires it)
// and give to_string a home in both modes.

#include "chk/chk.hpp"

namespace nexuspp::chk {

const char* to_string(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kAtomicLoad: return "atomic-load";
    case OpKind::kAtomicStore: return "atomic-store";
    case OpKind::kAtomicRmw: return "atomic-rmw";
    case OpKind::kAtomicCas: return "atomic-cas";
    case OpKind::kMutexLock: return "mutex-lock";
    case OpKind::kMutexUnlock: return "mutex-unlock";
    case OpKind::kCondWait: return "cond-wait";
    case OpKind::kCondNotify: return "cond-notify";
    case OpKind::kPlainRead: return "plain-read";
    case OpKind::kPlainWrite: return "plain-write";
    case OpKind::kYield: return "yield";
  }
  return "?";
}

}  // namespace nexuspp::chk

#endif  // NEXUSPP_SCHEDCHECK

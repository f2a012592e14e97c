#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "report.h"

namespace perfbench {

namespace {

// Service span ids restart at 1 per tracer; keep them apart from the
// benchmark's ids in the exported file.
constexpr uint64_t kServiceIdBase = uint64_t{1} << 40;

}  // namespace

uint64_t TraceLog::Begin(const char* name) {
  const uint64_t id = next_id_++;
  const uint64_t parent = open_.empty() ? 0 : open_.back().id;
  open_.push_back(Open{id, name, NowNanos(), parent});
  return id;
}

void TraceLog::End(uint64_t id) {
  const int64_t end = NowNanos();
  // Spans close in LIFO order; tolerate a mismatch by closing down to `id`.
  while (!open_.empty()) {
    Open open = open_.back();
    open_.pop_back();
    fm::obs::SpanRecord record;
    record.id = open.id;
    record.parent_id = open.parent;
    record.name = open.name;
    record.start_nanos = open.start;
    record.end_nanos = end;
    Push(Event{std::move(record), Track::kBench});
    if (open.id == id) return;
  }
}

void TraceLog::AddService(const std::vector<fm::obs::SpanRecord>& records) {
  for (const fm::obs::SpanRecord& r : records) {
    fm::obs::SpanRecord copy = r;
    copy.id += kServiceIdBase;
    if (copy.parent_id != 0) copy.parent_id += kServiceIdBase;
    Push(Event{std::move(copy), Track::kService});
  }
}

void TraceLog::Push(Event event) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

bool TraceLog::WriteChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (const Event& e : events_) {
    if (origin == 0 || e.record.start_nanos < origin) {
      origin = e.record.start_nanos;
    }
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  std::fputs(
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"benchmark\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"service\"}}",
      f);
  for (const Event& e : events_) {
    const fm::obs::SpanRecord& r = e.record;
    std::fprintf(
        f,
        ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":%s,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
        static_cast<int>(e.track),
        e.track == Track::kBench ? "benchmark" : "service",
        JsonString(r.name).c_str(),
        static_cast<double>(r.start_nanos - origin) / 1e3,
        static_cast<double>(r.DurationNanos()) / 1e3,
        static_cast<unsigned long long>(r.id),
        static_cast<unsigned long long>(r.parent_id));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

Scope::Scope(TraceLog* log, const char* name) : log_(log) {
  if (log_ != nullptr) id_ = log_->Begin(name);
  start_ = NowNanos();
}

int64_t Scope::Stop() {
  if (nanos_ >= 0) return nanos_;
  nanos_ = NowNanos() - start_;
  if (log_ != nullptr) log_->End(id_);
  return nanos_;
}

std::vector<int64_t> SelfTimes(
    const std::vector<fm::obs::SpanRecord>& records) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < records.size(); ++i) index[records[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      records.size());
  for (const fm::obs::SpanRecord& r : records) {
    const auto parent = index.find(r.parent_id);
    if (r.parent_id == 0 || parent == index.end()) continue;
    children[parent->second].emplace_back(r.start_nanos, r.end_nanos);
  }
  std::vector<int64_t> self(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const fm::obs::SpanRecord& r = records[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t cursor = r.start_nanos;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, cursor);
      const int64_t hi = std::min(end, r.end_nanos);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = r.DurationNanos() - covered;
  }
  return self;
}

}  // namespace perfbench

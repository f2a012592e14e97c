#include "report.h"

#include <malloc.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

std::vector<double> CallProfile(const std::vector<std::vector<double>>& rounds,
                                double q) {
  std::vector<double> profile(rounds.front().size());
  std::vector<double> column(rounds.size());
  for (size_t k = 0; k < profile.size(); ++k) {
    for (size_t r = 0; r < rounds.size(); ++r) column[r] = rounds[r][k];
    profile[k] = Quantile(column, q);
  }
  return profile;
}

Spread Summarize(const std::vector<double>& values) {
  Spread s;
  s.n = values.size();
  if (values.empty()) return s;
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  s.q1 = Quantile(values, 0.25);
  s.median = Quantile(values, 0.5);
  s.q3 = Quantile(values, 0.75);
  return s;
}

double TailPercentile(size_t n, double cap, size_t min_beyond) {
  static const double kCandidates[] = {99.9, 99.5, 99.0, 98.0, 95.0,
                                       90.0, 80.0, 75.0};
  for (double p : kCandidates) {
    if (p > cap) continue;
    // Samples strictly above the p-th percentile position.
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond >= static_cast<double>(min_beyond)) return p;
  }
  return 50.0;
}

void Digest::Bytes(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

double AnonRssMb() {
  // Hand cached free pages back first, so the figure is memory the program
  // holds rather than what the allocator happens to keep.
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::strtod(line.c_str() + 8, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Report::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 32) errors.push_back(why);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, std::vector<double> samples) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics[name] = Metric{value, unit, std::move(samples)};
}

void SetAccum(Report& report, const std::string& name, const Accum& a,
              double divisor, const std::string& unit) {
  std::vector<double> samples;
  samples.reserve(a.samples.size());
  for (double s : a.samples) samples.push_back(s / divisor);
  report.Set(name, a.Mean() / divisor, unit, std::move(samples));
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Report::FullJson() const {
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(workload)
      << ",\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    out << (i ? "," : "") << JsonString(errors[i]);
  }
  out << "],\"info\":{";
  bool first = true;
  for (const auto& [key, value] : info) {
    out << (first ? "" : ",") << JsonString(key) << ":" << JsonString(value);
    first = false;
  }
  out << "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : metrics) {
    const Spread s = m.samples.empty()
                         ? Spread{1, m.value, m.value, m.value, m.value,
                                  m.value}
                         : Summarize(m.samples);
    out << (first ? "" : ",") << JsonString(name) << ":{\"value\":"
        << JsonNumber(m.value) << ",\"unit\":" << JsonString(m.unit)
        << ",\"n\":" << s.n << ",\"min\":" << JsonNumber(s.min)
        << ",\"q1\":" << JsonNumber(s.q1)
        << ",\"median\":" << JsonNumber(s.median)
        << ",\"q3\":" << JsonNumber(s.q3) << ",\"max\":" << JsonNumber(s.max)
        << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string Report::ResultLine() const {
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ",") << JsonString(name)
        << ":{\"value\":" << JsonNumber(m.value)
        << ",\"unit\":" << JsonString(m.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void RecordFingerprint(Report& report, size_t pool_threads) {
  report.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Info("pool_threads", std::to_string(pool_threads));
  report.Info("cpu_model", CpuModel());
  utsname uts{};
  if (uname(&uts) == 0) {
    report.Info("kernel", std::string(uts.sysname) + " " + uts.release);
  }
  report.Info("build_type", FM_PERFBENCH_BUILD_TYPE);
  const char* blocked = std::getenv("FM_BLOCKED_LINALG");
  report.Info("FM_BLOCKED_LINALG", blocked != nullptr ? blocked : "unset (1)");
  const char* threads = std::getenv("FM_THREADS");
  report.Info("FM_THREADS", threads != nullptr ? threads : "unset");
}

}  // namespace perfbench

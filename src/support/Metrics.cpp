//===- support/Metrics.cpp - Process-wide metrics registry ----------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace clgen {
namespace support {

uint64_t telemetryNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

template <typename T> struct NamedMetric {
  std::unique_ptr<T> Metric;
  MetricStability Stability;
};

struct RegistryImpl {
  std::mutex M;
  // std::map keeps names sorted so renderText never re-sorts.
  std::map<std::string, NamedMetric<Counter>, std::less<>> Counters;
  std::map<std::string, NamedMetric<Gauge>, std::less<>> Gauges;
  std::map<std::string, NamedMetric<Histogram>, std::less<>> Histograms;
};

// Leaked on purpose: instrumentation sites hold references from
// function-local statics whose destruction order vs. this registry is
// otherwise unsequenced at process exit.
RegistryImpl &impl() {
  static RegistryImpl *R = new RegistryImpl();
  return *R;
}

template <typename T>
T &getOrRegister(std::map<std::string, NamedMetric<T>, std::less<>> &Map,
                 std::string_view Name, MetricStability S) {
  RegistryImpl &R = impl();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = Map.find(Name);
  if (It == Map.end())
    It = Map.emplace(std::string(Name),
                     NamedMetric<T>{std::make_unique<T>(), S})
             .first;
  return *It->second.Metric;
}

template <typename T>
const T *find(const std::map<std::string, NamedMetric<T>, std::less<>> &Map,
              std::string_view Name) {
  RegistryImpl &R = impl();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = Map.find(Name);
  return It == Map.end() ? nullptr : It->second.Metric.get();
}

const char *stabilityName(MetricStability S) {
  return S == MetricStability::Stable ? "stable" : "volatile";
}

void appendU64(std::string &Out, uint64_t V) { Out += std::to_string(V); }
void appendI64(std::string &Out, int64_t V) { Out += std::to_string(V); }

} // namespace

Counter &MetricsRegistry::counter(std::string_view Name, MetricStability S) {
  return getOrRegister(impl().Counters, Name, S);
}

Gauge &MetricsRegistry::gauge(std::string_view Name, MetricStability S) {
  return getOrRegister(impl().Gauges, Name, S);
}

Histogram &MetricsRegistry::histogram(std::string_view Name,
                                      MetricStability S) {
  return getOrRegister(impl().Histograms, Name, S);
}

const Counter *MetricsRegistry::findCounter(std::string_view Name) {
  return find(impl().Counters, Name);
}

const Gauge *MetricsRegistry::findGauge(std::string_view Name) {
  return find(impl().Gauges, Name);
}

const Histogram *MetricsRegistry::findHistogram(std::string_view Name) {
  return find(impl().Histograms, Name);
}

std::string MetricsRegistry::renderText(const RenderOptions &Opts) {
  RegistryImpl &R = impl();
  std::lock_guard<std::mutex> Lock(R.M);

  // One (name, line) pair per metric, then a global sort by name so the
  // exposition interleaves kinds deterministically.
  std::vector<std::pair<std::string_view, std::string>> Lines;
  Lines.reserve(R.Counters.size() + R.Gauges.size() + R.Histograms.size());

  for (const auto &[Name, NM] : R.Counters) {
    if (Opts.SkipVolatile && NM.Stability == MetricStability::Volatile)
      continue;
    std::string L = "counter ";
    L += Name;
    L += ' ';
    appendU64(L, NM.Metric->value());
    L += ' ';
    L += stabilityName(NM.Stability);
    Lines.emplace_back(Name, std::move(L));
  }
  for (const auto &[Name, NM] : R.Gauges) {
    if (Opts.SkipVolatile && NM.Stability == MetricStability::Volatile)
      continue;
    std::string L = "gauge ";
    L += Name;
    L += " last=";
    appendI64(L, NM.Metric->value());
    L += " max=";
    appendI64(L, NM.Metric->maxValue());
    L += ' ';
    L += stabilityName(NM.Stability);
    Lines.emplace_back(Name, std::move(L));
  }
  for (const auto &[Name, NM] : R.Histograms) {
    if (Opts.SkipVolatile && NM.Stability == MetricStability::Volatile)
      continue;
    const Histogram &H = *NM.Metric;
    std::string L = "histogram ";
    L += Name;
    L += " count=";
    appendU64(L, H.count());
    L += " sum=";
    appendU64(L, H.sum());
    L += " min=";
    appendU64(L, H.min());
    L += " max=";
    appendU64(L, H.max());
    L += " buckets=";
    bool Any = false;
    for (size_t B = 0; B < Histogram::NumBuckets; ++B) {
      uint64_t N = H.bucketCount(B);
      if (N == 0)
        continue;
      if (Any)
        L += ',';
      appendU64(L, B);
      L += ':';
      appendU64(L, N);
      Any = true;
    }
    if (!Any)
      L += '-';
    L += ' ';
    L += stabilityName(NM.Stability);
    Lines.emplace_back(Name, std::move(L));
  }

  std::sort(Lines.begin(), Lines.end());

  std::string Out = "# clgen metrics v1\n";
  for (auto &[Name, Line] : Lines) {
    Out += Line;
    Out += '\n';
  }
  return Out;
}

void MetricsRegistry::reset() {
  RegistryImpl &R = impl();
  std::lock_guard<std::mutex> Lock(R.M);
  for (auto &[Name, NM] : R.Counters)
    NM.Metric->reset();
  for (auto &[Name, NM] : R.Gauges)
    NM.Metric->reset();
  for (auto &[Name, NM] : R.Histograms)
    NM.Metric->reset();
}

} // namespace support
} // namespace clgen

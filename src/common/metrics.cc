#include "common/metrics.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <sstream>

namespace fungusdb {
namespace {

/// Index of the exponential bucket holding `value`.
int BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  // Bucket i (i >= 1) covers [2^(i-1), 2^i).
  int bits = 64 - __builtin_clzll(static_cast<uint64_t>(value));
  return std::min(bits, 63);
}

/// Lower bound of bucket i.
double BucketLow(int i) {
  return i == 0 ? 0.0 : static_cast<double>(1ULL << (i - 1));
}

/// Upper bound of bucket i.
double BucketHigh(int i) {
  return i == 0 ? 1.0 : static_cast<double>(1ULL << std::min(i, 62));
}

/// Prometheus metric names allow [a-zA-Z0-9_:] with a non-digit first
/// character; the registry's dotted names map dots (and anything else)
/// to underscores: fungusdb.decay.ticks -> fungusdb_decay_ticks.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

/// Escapes a Prometheus label value (backslash, quote, newline).
std::string PromLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Renders the registry's "key=value" label string as a Prometheus
/// label pair; a label with no '=' gets the generic key "label". Extra
/// pairs (e.g. quantile) append after it.
std::string PromLabels(const std::string& label,
                       const std::string& extra = "") {
  if (label.empty() && extra.empty()) return "";
  std::string inner;
  if (!label.empty()) {
    const size_t eq = label.find('=');
    const std::string key =
        eq == std::string::npos ? "label" : PromName(label.substr(0, eq));
    const std::string value =
        eq == std::string::npos ? label : label.substr(eq + 1);
    inner = key + "=\"" + PromLabelValue(value) + "\"";
  }
  if (!extra.empty()) {
    if (!inner.empty()) inner += ",";
    inner += extra;
  }
  return "{" + inner + "}";
}

std::string FmtDouble(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

HistogramMetric::HistogramMetric() { Reset(); }

void HistogramMetric::Record(int64_t value) {
  ++buckets_[BucketIndex(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double HistogramMetric::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
}

double HistogramMetric::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The extremes are tracked exactly; never interpolate them.
  if (q == 0.0) return static_cast<double>(min());
  if (q == 1.0) return static_cast<double>(max());
  const double target = q * static_cast<double>(count_);
  double seen = 0.0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double next = seen + static_cast<double>(buckets_[i]);
    if (next >= target) {
      const double frac = (target - seen) / static_cast<double>(buckets_[i]);
      // Bucket 0 holds every non-positive observation, so its lower
      // bound is the (possibly negative) tracked minimum, not 0.
      double lo = i == 0 ? std::min(0.0, static_cast<double>(min()))
                         : BucketLow(i);
      lo = std::max(lo, static_cast<double>(min()));
      double hi = std::min(BucketHigh(i), static_cast<double>(max()));
      if (hi < lo) hi = lo;
      return lo + frac * (hi - lo);
    }
    seen = next;
  }
  return static_cast<double>(max());
}

std::vector<std::pair<int64_t, int64_t>> HistogramMetric::CumulativeBuckets()
    const {
  std::vector<std::pair<int64_t, int64_t>> out;
  int64_t cumulative = 0;
  // Bucket 63 ([2^62, inf)) has no finite bound; it is covered by the
  // +Inf series the exposition writer derives from count().
  for (int i = 0; i < kNumBuckets - 1; ++i) {
    if (buckets_[i] == 0) continue;
    cumulative += buckets_[i];
    const int64_t le = i == 0 ? 0 : static_cast<int64_t>((1ULL << i) - 1);
    out.emplace_back(le, cumulative);
  }
  return out;
}

void HistogramMetric::Reset() {
  std::memset(buckets_, 0, sizeof(buckets_));
  count_ = 0;
  sum_ = 0;
  min_ = INT64_MAX;
  max_ = INT64_MIN;
}

void MetricsRegistry::IncrementCounter(const std::string& name,
                                       int64_t delta) {
  IncrementCounter(name, "", delta);
}

void MetricsRegistry::IncrementCounter(const std::string& name,
                                       const std::string& label,
                                       int64_t delta) {
  MutexLock lock(mu_);
  counters_[name][label] += delta;
}

int64_t MetricsRegistry::GetCounter(const std::string& name) const {
  return GetCounter(name, "");
}

int64_t MetricsRegistry::GetCounter(const std::string& name,
                                    const std::string& label) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  auto jt = it->second.find(label);
  return jt == it->second.end() ? 0 : jt->second;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  SetGauge(name, "", value);
}

void MetricsRegistry::SetGauge(const std::string& name,
                               const std::string& label, double value) {
  MutexLock lock(mu_);
  gauges_[name][label] = value;
}

double MetricsRegistry::GetGauge(const std::string& name) const {
  return GetGauge(name, "");
}

double MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& label) const {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) return 0.0;
  auto jt = it->second.find(label);
  return jt == it->second.end() ? 0.0 : jt->second;
}

void MetricsRegistry::RecordHistogram(const std::string& name,
                                      int64_t value) {
  RecordHistogram(name, "", value);
}

void MetricsRegistry::RecordHistogram(const std::string& name,
                                      const std::string& label,
                                      int64_t value) {
  MutexLock lock(mu_);
  histograms_[name][label].Record(value);
}

void MetricsRegistry::RecordHistogram(const std::string& name,
                                      const std::string& label,
                                      std::span<const int64_t> values) {
  MutexLock lock(mu_);
  HistogramMetric& histogram = histograms_[name][label];
  for (const int64_t value : values) histogram.Record(value);
}

HistogramMetric& MetricsRegistry::Histogram(const std::string& name) {
  MutexLock lock(mu_);
  return histograms_[name][""];
}

const HistogramMetric* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  return FindHistogram(name, "");
}

const HistogramMetric* MetricsRegistry::FindHistogram(
    const std::string& name, const std::string& label) const {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return nullptr;
  auto jt = it->second.find(label);
  return jt == it->second.end() ? nullptr : &jt->second;
}

std::string MetricsRegistry::Report() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  auto series_name = [](const std::string& name, const std::string& label) {
    return label.empty() ? name : name + "{" + label + "}";
  };
  for (const auto& [name, by_label] : counters_) {
    for (const auto& [label, value] : by_label) {
      os << series_name(name, label) << " = " << value << "\n";
    }
  }
  for (const auto& [name, by_label] : gauges_) {
    for (const auto& [label, value] : by_label) {
      os << series_name(name, label) << " = " << value << "\n";
    }
  }
  for (const auto& [name, by_label] : histograms_) {
    for (const auto& [label, h] : by_label) {
      os << series_name(name, label) << " = {count=" << h.count()
         << " mean=" << h.Mean() << " p50=" << h.Quantile(0.5)
         << " p99=" << h.Quantile(0.99) << " max=" << h.max() << "}\n";
    }
  }
  return os.str();
}

std::string MetricsRegistry::PrometheusReport() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  for (const auto& [name, by_label] : counters_) {
    const std::string prom = PromName(name);
    os << "# TYPE " << prom << " counter\n";
    for (const auto& [label, value] : by_label) {
      os << prom << PromLabels(label) << " " << value << "\n";
    }
  }
  for (const auto& [name, by_label] : gauges_) {
    const std::string prom = PromName(name);
    os << "# TYPE " << prom << " gauge\n";
    for (const auto& [label, value] : by_label) {
      os << prom << PromLabels(label) << " " << FmtDouble(value) << "\n";
    }
  }
  for (const auto& [name, by_label] : histograms_) {
    const std::string prom = PromName(name);
    os << "# TYPE " << prom << " histogram\n";
    for (const auto& [label, h] : by_label) {
      for (const auto& [le, cumulative] : h.CumulativeBuckets()) {
        os << prom << "_bucket"
           << PromLabels(label, "le=\"" + std::to_string(le) + "\"") << " "
           << cumulative << "\n";
      }
      // +Inf closes every histogram and always equals _count, including
      // observations in the unbounded overflow bucket.
      os << prom << "_bucket" << PromLabels(label, "le=\"+Inf\"") << " "
         << h.count() << "\n";
      os << prom << "_sum" << PromLabels(label) << " " << h.sum() << "\n";
      os << prom << "_count" << PromLabels(label) << " " << h.count()
         << "\n";
    }
  }
  return os.str();
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace fungusdb

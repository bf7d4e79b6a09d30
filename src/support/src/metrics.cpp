#include "eim/support/metrics.hpp"

#include <algorithm>
#include <utility>

namespace eim::support::metrics {

namespace {

/// Emplace-or-find under the registry mutex; the unique_ptr indirection
/// keeps instrument addresses stable across later insertions.
template <typename Map, typename Instrument = typename Map::mapped_type::element_type>
Instrument& lookup(std::mutex& mu, Map& map, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<Instrument>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return lookup(mu_, counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return lookup(mu_, gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return lookup(mu_, histograms_, name);
}

std::uint64_t Histogram::quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  // Rank of the requested quantile, at least 1 so q -> first bucket works.
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cumulative = 0;
  for (std::uint32_t b = 0; b < kNumBuckets; ++b) {
    cumulative += bucket_count(b);
    if (cumulative >= rank) {
      // The bucket's upper bound, clamped by the true max (exact when the
      // quantile falls in the max's bucket).
      return std::min(bucket_upper(b), max_value());
    }
  }
  return max_value();
}

PhaseTimer& MetricsRegistry::phase(std::string_view name) {
  return lookup(mu_, phases_, name);
}

Histogram& MetricsRegistry::wall_timer(std::string_view name) {
  return lookup(mu_, wall_timers_, name);
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.field("count", h->count())
        .field("sum", h->sum())
        .field("max", h->max_value())
        .field("p50", h->quantile(0.50))
        .field("p95", h->quantile(0.95));
    w.begin_array("buckets");
    for (std::uint32_t b = 0; b < Histogram::kNumBuckets; ++b) {
      const std::uint64_t n = h->bucket_count(b);
      if (n == 0) continue;  // sparse: only occupied buckets are reported
      w.begin_object()
          .field("le", Histogram::bucket_upper(b))
          .field("count", n)
          .end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.begin_array("phases");
  for (const auto& [name, p] : phases_) {
    w.begin_object()
        .field("name", std::string_view(name))
        .field("wall_seconds", p->wall_seconds())
        .field("modeled_seconds", p->modeled_seconds())
        .field("entries", p->entries())
        .end_object();
  }
  w.end_array();
  w.end_object();
}

void MetricsRegistry::write_wall_json(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  for (const auto& [name, h] : wall_timers_) {
    w.key(name).begin_object();
    w.field("entries", h->count())
        .field("total_seconds", static_cast<double>(h->sum()) * 1e-9)
        .field("p50_ns", h->quantile(0.5))
        .field("p95_ns", h->quantile(0.95))
        .field("max_ns", h->max_value());
    w.end_object();
  }
  w.end_object();
}

ScopedPhase::ScopedPhase(PhaseTimer& timer) noexcept
    : timer_(&timer), start_(std::chrono::steady_clock::now()) {}

ScopedPhase::~ScopedPhase() {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  timer_->add_wall(std::chrono::duration<double>(elapsed).count());
}

void restore_registry_json(MetricsRegistry& into, std::string_view json) {
  const JsonValue doc = parse_json(json);
  EIM_CHECK_MSG(doc.is_object(), "metrics snapshot is not a JSON object");
  if (const JsonValue* counters = doc.find("counters"); counters != nullptr) {
    for (const auto& [name, v] : counters->members()) {
      into.counter(name).add(static_cast<std::uint64_t>(v.as_int()));
    }
  }
  if (const JsonValue* gauges = doc.find("gauges"); gauges != nullptr) {
    for (const auto& [name, v] : gauges->members()) {
      into.gauge(name).set(static_cast<std::uint64_t>(v.as_int()));
    }
  }
  if (const JsonValue* histograms = doc.find("histograms"); histograms != nullptr) {
    for (const auto& [name, v] : histograms->members()) {
      Histogram& h = into.histogram(name);
      for (const JsonValue& bucket : v.at("buckets").items()) {
        const auto le = static_cast<std::uint64_t>(bucket.at("le").as_int());
        const auto n = static_cast<std::uint64_t>(bucket.at("count").as_int());
        h.merge_bucket(Histogram::bucket_of(le), n);
      }
      h.merge_totals(static_cast<std::uint64_t>(v.at("sum").as_int()),
                     static_cast<std::uint64_t>(v.at("max").as_int()));
    }
  }
  if (const JsonValue* phases = doc.find("phases"); phases != nullptr) {
    for (const JsonValue& p : phases->items()) {
      into.phase(p.at("name").as_string())
          .merge(p.at("wall_seconds").as_double(), p.at("modeled_seconds").as_double(),
                 static_cast<std::uint64_t>(p.at("entries").as_int()));
    }
  }
}

void RunReport::write_json(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.field("schema", "eim.metrics.v3");
  w.field("tool", std::string_view(tool));
  w.key("run").begin_object();
  w.field("graph", std::string_view(graph))
      .field("algo", std::string_view(algo))
      .field("model", std::string_view(model))
      .field("vertices", vertices)
      .field("edges", edges)
      .field("k", std::uint64_t{k})
      .field("epsilon", epsilon);
  w.end_object();
  w.key("metrics");
  if (metrics != nullptr) {
    metrics->write_json(w);
  } else {
    w.null();
  }
  // v3 addition: host wall-clock attribution for the instrumented hot
  // scopes; null when no registry was attached.
  w.key("wall");
  if (metrics != nullptr) {
    metrics->write_wall_json(w);
  } else {
    w.null();
  }
  w.end_object();
  out << '\n';
}

}  // namespace eim::support::metrics

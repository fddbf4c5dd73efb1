// Compares two BENCH_*.json snapshots (the MetricsRegistry::ExportJson
// schema: counters/gauges/histograms arrays of {"name","labels",...},
// compact or pretty-printed; labels compare with whitespace removed) and
// reports per-metric deltas, failing when a directional metric regresses
// beyond the threshold — the mechanical check that a perf PR's committed
// baseline actually moved the right way, and that later PRs do not quietly
// give the win back.
//
// Direction is inferred from the metric name:
//   higher-better: *qps*, *speedup*, *hit_rate*
//   lower-better:  *_ms, *_seconds, *seconds*, p50/p95/p99
//   anything else: informational (printed, never failing)
//
// *overhead_pct* is informational by design: it is a difference of two
// noisy ratios (a percent of a percent after the division here), so its
// relative delta is meaningless — the absolute budget is enforced by the
// emitting bench itself.
//
// Two metric classes get a widened effective threshold:
//   - p50/p95/p99 values come out of the obs histogram, whose log-spaced
//     buckets are ~16% apart — a one-bucket move is the smallest delta
//     the histogram can represent, so the threshold is floored at just
//     above one bucket step (deltas below that are quantization).
//   - speedup/*_ratio metrics are quotients of two independently noisy
//     measurements (variance roughly doubles), so they get 2x the
//     threshold.
//
// Usage: bench_diff BASE.json NEW.json [MORE.json...] [--threshold_pct=N]
//   (default threshold 10)
//
// When several NEW files are given they are treated as repeated runs of
// the same bench and merged per metric before diffing: lower-better
// metrics keep their minimum across runs, higher-better their maximum,
// informational ones the first run's value. Best-of-N is the standard
// way to gate wall-clock numbers on machines with bursty background
// load — a burst slows one whole run, but each metric only needs one
// unperturbed sample to show its true value.
//
// Exit status: 0 when no directional metric regressed by more than the
// threshold, 1 otherwise (also 1 on parse/read errors).

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

enum class Direction { kHigherBetter, kLowerBetter, kInformational };

Direction DirectionOf(const std::string& name) {
  auto has = [&](const char* needle) {
    return name.find(needle) != std::string::npos;
  };
  if (has("qps") || has("speedup") || has("hit_rate")) {
    return Direction::kHigherBetter;
  }
  if (has("overhead_pct")) return Direction::kInformational;
  if (has("_ms") || has("seconds") || has(".p50") || has(".p95") ||
      has(".p99")) {
    return Direction::kLowerBetter;
  }
  return Direction::kInformational;
}

/// Flat metric map: "name{labels}" (plus ".p50" etc. for histogram
/// sub-values) -> value.
using MetricMap = std::map<std::string, double>;

/// Index just past the JSON string whose opening quote is at `pos`
/// (escapes skipped, not decoded — names and labels in this schema are
/// plain identifiers).
size_t SkipString(const std::string& text, size_t pos) {
  for (size_t i = pos + 1; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;
    } else if (text[i] == '"') {
      return i + 1;
    }
  }
  return std::string::npos;
}

/// Index just past the object or array opening at `pos`, strings aware.
size_t SkipNested(const std::string& text, size_t pos) {
  int depth = 0;
  for (size_t i = pos; i < text.size();) {
    char c = text[i];
    if (c == '"') {
      i = SkipString(text, i);
      if (i == std::string::npos) return i;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if ((c == '}' || c == ']') && --depth == 0) return i + 1;
    ++i;
  }
  return std::string::npos;
}

size_t SkipSpace(const std::string& text, size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  return pos;
}

/// `text` without the whitespace outside strings: the labels object as a
/// key that matches across compact and pretty-printed snapshots.
std::string Compact(const std::string& text) {
  std::string out;
  for (size_t i = 0; i < text.size();) {
    if (text[i] == '"') {
      size_t end = SkipString(text, i);
      if (end == std::string::npos) end = text.size();
      out.append(text, i, end - i);
      i = end;
    } else {
      if (!std::isspace(static_cast<unsigned char>(text[i]))) out += text[i];
      ++i;
    }
  }
  return out;
}

/// Adds one metric object (`{"name":..., "labels":{...}, "value":...}` or
/// a histogram's summary fields) to `out`, whatever its whitespace.
/// Returns false when the object carries no name or no number.
bool ParseMetric(const std::string& object, MetricMap* out) {
  std::string name;
  std::string labels = "{}";
  std::map<std::string, double> numbers;
  size_t pos = SkipSpace(object, 1);  // past '{'
  while (pos < object.size() && object[pos] == '"') {
    size_t key_end = SkipString(object, pos);
    if (key_end == std::string::npos) return false;
    std::string key = object.substr(pos + 1, key_end - pos - 2);
    pos = SkipSpace(object, key_end);
    if (pos >= object.size() || object[pos] != ':') return false;
    pos = SkipSpace(object, pos + 1);
    if (pos >= object.size()) return false;
    size_t value_end;
    if (object[pos] == '"') {
      value_end = SkipString(object, pos);
      if (value_end == std::string::npos) return false;
      if (key == "name") name = object.substr(pos + 1, value_end - pos - 2);
    } else if (object[pos] == '{' || object[pos] == '[') {
      value_end = SkipNested(object, pos);
      if (value_end == std::string::npos) return false;
      if (key == "labels") labels = Compact(object.substr(pos, value_end - pos));
    } else {
      char* end = nullptr;
      double v = std::strtod(object.c_str() + pos, &end);
      if (end == object.c_str() + pos) return false;
      numbers[key] = v;
      value_end = static_cast<size_t>(end - object.c_str());
    }
    pos = SkipSpace(object, value_end);
    if (pos < object.size() && object[pos] == ',') pos = SkipSpace(object, pos + 1);
  }
  if (name.empty()) return false;
  const std::string key = name + labels;
  if (auto it = numbers.find("value"); it != numbers.end()) {
    (*out)[key] = it->second;
    return true;
  }
  // Histogram entry: explode the summary fields into sub-metrics.
  bool any = false;
  for (const char* f : {"count", "mean", "max", "p50", "p95", "p99"}) {
    if (auto it = numbers.find(f); it != numbers.end()) {
      (*out)[key + "." + f] = it->second;
      any = true;
    }
  }
  return any;
}

/// Reads every metric object of the "counters", "gauges" and "histograms"
/// arrays, one object at a time. A file with none of those arrays is not
/// a snapshot; one whose arrays yield no metric at all is an error too,
/// since diffing it would compare nothing.
bool ParseFile(const std::string& path, MetricMap* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  bool saw_any_array = false;
  size_t parsed = 0;
  for (const char* array : {"\"counters\"", "\"gauges\"", "\"histograms\""}) {
    size_t at = text.find(array);
    if (at == std::string::npos) continue;
    size_t open = SkipSpace(text, at + std::strlen(array));
    if (open < text.size() && text[open] == ':') open = SkipSpace(text, open + 1);
    if (open >= text.size() || text[open] != '[') continue;
    saw_any_array = true;
    const size_t close = SkipNested(text, open);
    if (close == std::string::npos) {
      std::fprintf(stderr, "bench_diff: %s: unterminated %s array\n",
                   path.c_str(), array);
      return false;
    }
    for (size_t pos = SkipSpace(text, open + 1); pos < close - 1;) {
      if (text[pos] != '{') {  // separator
        pos = SkipSpace(text, pos + 1);
        continue;
      }
      size_t end = SkipNested(text, pos);
      if (end == std::string::npos || end > close) break;
      if (!ParseMetric(text.substr(pos, end - pos), out)) {
        std::fprintf(stderr, "bench_diff: %s: unreadable metric %s\n",
                     path.c_str(), text.substr(pos, end - pos).c_str());
        return false;
      }
      ++parsed;
      pos = SkipSpace(text, end);
    }
  }
  if (!saw_any_array) {
    std::fprintf(stderr, "bench_diff: %s is not a metrics JSON snapshot\n",
                 path.c_str());
    return false;
  }
  if (parsed == 0) {
    std::fprintf(stderr, "bench_diff: %s has no metrics\n", path.c_str());
    return false;
  }
  return true;
}

/// Widens the gate for metric classes whose run-to-run jitter exceeds a
/// typical threshold even on a quiet machine (header comment has the
/// full rationale).
double EffectiveThreshold(const std::string& name, double threshold_pct) {
  auto has = [&](const char* needle) {
    return name.find(needle) != std::string::npos;
  };
  // Quotients of two independently noisy measurements.
  if (has("speedup") || has("_ratio")) return 2.0 * threshold_pct;
  // Histogram percentiles are quantized to ~15.6% bucket steps (128
  // log-spaced buckets over [1us, 100s]); floor just above one step.
  constexpr double kOneBucketStepPct = 17.0;
  if (has("p50") || has("p95") || has("p99")) {
    return threshold_pct < kOneBucketStepPct ? kOneBucketStepPct
                                             : threshold_pct;
  }
  return threshold_pct;
}

const char* DirectionTag(Direction d) {
  switch (d) {
    case Direction::kHigherBetter: return "higher";
    case Direction::kLowerBetter: return "lower";
    case Direction::kInformational: return "info";
  }
  return "info";
}

}  // namespace

int main(int argc, char** argv) {
  double threshold_pct = 10.0;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threshold_pct=", 16) == 0) {
      threshold_pct = std::strtod(argv[i] + 16, nullptr);
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() < 2) {
    std::fprintf(stderr,
                 "usage: bench_diff BASE.json NEW.json [MORE.json...] "
                 "[--threshold_pct=N]\n");
    return 1;
  }

  MetricMap base, next;
  if (!ParseFile(files[0], &base) || !ParseFile(files[1], &next)) return 1;
  // Fold any further snapshots in as repeated runs: keep the per-metric
  // best in the metric's own direction (first run wins for
  // informational metrics and breaks ties).
  for (size_t i = 2; i < files.size(); ++i) {
    MetricMap run;
    if (!ParseFile(files[i], &run)) return 1;
    for (const auto& [key, v] : run) {
      auto it = next.find(key);
      if (it == next.end()) {
        next[key] = v;
        continue;
      }
      switch (DirectionOf(key)) {
        case Direction::kLowerBetter:
          if (v < it->second) it->second = v;
          break;
        case Direction::kHigherBetter:
          if (v > it->second) it->second = v;
          break;
        case Direction::kInformational:
          break;
      }
    }
  }

  std::printf("bench_diff: %s -> %s%s (threshold %.1f%%)\n", files[0].c_str(),
              files[1].c_str(),
              files.size() > 2 ? " (+best-of reruns)" : "", threshold_pct);
  std::printf("%-58s %12s %12s %9s %7s\n", "metric", "base", "new", "delta%",
              "dir");

  size_t regressions = 0, improvements = 0, missing = 0;
  for (const auto& [key, base_v] : base) {
    auto it = next.find(key);
    if (it == next.end()) {
      std::printf("%-58s %12.6g %12s %9s %7s\n", key.c_str(), base_v,
                  "(gone)", "-", "info");
      ++missing;
      continue;
    }
    double new_v = it->second;
    double delta_pct =
        base_v != 0 ? 100.0 * (new_v - base_v) / std::fabs(base_v)
                    : (new_v == 0 ? 0 : 100.0);
    Direction dir = DirectionOf(key);
    double gate = EffectiveThreshold(key, threshold_pct);
    bool regressed = false;
    if (dir == Direction::kHigherBetter) regressed = delta_pct < -gate;
    if (dir == Direction::kLowerBetter) regressed = delta_pct > gate;
    bool improved = false;
    if (dir == Direction::kHigherBetter) improved = delta_pct > gate;
    if (dir == Direction::kLowerBetter) improved = delta_pct < -gate;
    if (regressed) ++regressions;
    if (improved) ++improvements;
    std::printf("%-58s %12.6g %12.6g %+8.1f%% %7s%s\n", key.c_str(), base_v,
                new_v, delta_pct, DirectionTag(dir),
                regressed ? "  << REGRESSION" : "");
  }
  for (const auto& [key, new_v] : next) {
    if (base.find(key) == base.end()) {
      std::printf("%-58s %12s %12.6g %9s %7s\n", key.c_str(), "(new)", new_v,
                  "-", "info");
    }
  }

  std::printf("\n%zu regression(s), %zu improvement(s) beyond %.1f%%; "
              "%zu metric(s) missing from the new file\n",
              regressions, improvements, threshold_pct, missing);
  return regressions > 0 ? 1 : 0;
}

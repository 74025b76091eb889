// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions (name, start, end, parent, op id). Nothing is
// written while a run measures; the Chrome trace-event file is written once
// the run has ended. A disabled tracer records nothing, and the untraced op
// paths do not call it at all.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "congest/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span named prefix+suffix as a child of the innermost open span.
  // Returns its id, or -1 when tracing is off.
  int begin(std::string_view prefix, std::string_view suffix,
            std::uint64_t op) {
    if (!enabled_) return -1;
    Span s;
    s.name.reserve(prefix.size() + suffix.size());
    s.name.append(prefix).append(suffix);
    s.parent = open_;
    s.op = op;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void end(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }

  // A child of `parent` whose duration the library measured itself (a
  // public result field such as ScaleDiagnostics::explore_wall_ms). Only the
  // duration is known, so such children are laid out back to back from
  // `at_ns`; the returned value is where the next one starts.
  std::int64_t add_measured(std::string name, int parent, std::int64_t at_ns,
                            double ms) {
    if (parent < 0) return at_ns;
    const std::int64_t end_ns = at_ns + static_cast<std::int64_t>(ms * 1e6);
    Span s;
    s.name = std::move(name);
    s.start_ns = at_ns;
    s.end_ns = end_ns;
    s.parent = parent;
    s.op = spans_[static_cast<std::size_t>(parent)].op;
    spans_.push_back(std::move(s));
    return end_ns;
  }

  const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  int open_ = -1;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string_view prefix, std::uint64_t op,
             std::string_view suffix = {})
      : tracer_(t), id_(t.begin(prefix, suffix, op)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

inline double span_ms(const Tracer::Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

// Per-name totals: inclusive time, self time (inclusive minus the part its
// direct children cover) and span count.
struct LayerTime {
  double inclusive_ms = 0.0;
  double self_ms = 0.0;
  std::size_t count = 0;
};

inline std::map<std::string, LayerTime> layer_times(const Tracer& t) {
  const std::vector<Tracer::Span>& spans = t.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Tracer::Span& s : spans)
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += span_ms(s);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& l = out[spans[i].name];
    l.inclusive_ms += span_ms(spans[i]);
    l.self_ms += span_ms(spans[i]) - child_ms[i];
    ++l.count;
  }
  return out;
}

// Chrome trace-event format ("X" complete events), loadable in
// chrome://tracing or Perfetto.
inline bool write_chrome_trace(const Tracer& t, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  const std::vector<Tracer::Span>& spans = t.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",",
                 lightnet::congest::json_escape(s.name).c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op), i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

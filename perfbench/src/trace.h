#pragma once

// Span recorder of the traced run. Spans are kept in memory (capacity is
// reserved up front, so recording never allocates on the timed path) and
// written out as JSON lines when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a request's root span
  uint64_t request = 0;  ///< request id, shared by all spans of a request
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  /// While disabled, scopes read no clock and record nothing.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in microseconds of every span with this name.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes one JSON object per span.
  bool WriteJsonl(const std::string& path) const;

  /// Times one call: records a span from construction to destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request,
          uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* name_;
    uint64_t request_;
    uint64_t parent_;
    uint64_t id_ = 0;
    int64_t start_ns_ = 0;
  };

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_ = true;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#pragma once

// A single-threaded loopback load generator: one poll loop drives up to
// four keep-alive connections, each a closed loop (its next request goes
// out as soon as the previous reply is in).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

/// One finished (or failed) request.
struct Completion {
  const Request* request = nullptr;
  int status = 0;  ///< HTTP status; 0 = transport error or no reply in time
  const std::string* body = nullptr;  ///< null when status is 0
  double latency_ms = 0.0;            ///< from sending to the last byte read
  bool measured = false;  ///< sent inside the measurement window
};

struct DriveOptions {
  uint16_t port = 0;
  double warmup_s = 0.0;   ///< requests sent before this are not measured
  double measure_s = 1.0;  ///< length of the measurement window
  /// After the window closes: how long requests still in flight may take
  /// before they count as failed.
  double drain_s = 10.0;
};

/// Runs one connection per source until the window has passed and every
/// request sent has completed, calling `on_done` for each request in order
/// of completion. A source that returns nullopt closes its connection.
/// Returns the seconds from the start of the measurement window until the
/// last measured request completed (at least the window's length).
double Drive(const std::vector<RequestSource*>& sources,
             const DriveOptions& options,
             const std::function<void(const Completion&)>& on_done);

/// Sends one request on a fresh connection and waits for its reply.
/// Returns the status (0 on a transport error) and fills `body`.
int SendOne(uint16_t port, const Request& request, std::string* body);

}  // namespace perfbench

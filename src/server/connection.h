#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/status.h"
#include "server/event_loop.h"
#include "server/http.h"
#include "server/metrics.h"

namespace galaxy::server {

/// The pure (socket-free) half of a connection: an input byte stream fed in
/// arbitrary chunks, from which complete pipelined HTTP requests are
/// extracted in order. Separating this from fd handling makes the state
/// machine directly fuzzable (galaxy_fuzz --target=conn drives it with
/// randomized read-boundary splits).
///
/// Contract: bytes are only consumed when a full request parses; a parse
/// error (or input-buffer overflow) poisons the machine — the connection
/// answers with the error's status code and closes, mirroring what a
/// threaded server would do. Poisoning is sticky: pipelined bytes after a
/// malformed request are unreachable by design (their framing is unknown).
class ConnectionMachine {
 public:
  enum class Next {
    kRequest,   ///< one complete request extracted
    kNeedMore,  ///< buffer holds a (possibly empty) prefix of a request
    kError,     ///< malformed/over-limit; error_status()+http_status() say why
  };

  explicit ConnectionMachine(size_t max_buffered_bytes);

  /// Appends bytes read off the wire. Appending past max_buffered_bytes
  /// poisons the machine with 413 (the parser's own header/body limits
  /// normally trip first; this is the backstop for pathological pipelining).
  void Append(std::string_view bytes);

  /// Tries to extract the next complete request from the buffer head.
  Next TakeRequest(HttpRequest* out);

  bool poisoned() const { return poisoned_; }
  const Status& error_status() const { return error_; }
  int http_status() const { return http_status_; }
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  void Compact();

  const size_t max_buffered_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  ///< parsed-and-taken prefix, reclaimed by Compact
  bool poisoned_ = false;
  Status error_;
  int http_status_ = 400;
};

/// Connection-level metric handles (all optional; owned by the server's
/// MetricsRegistry).
struct ConnectionMetrics {
  Gauge* connections_open = nullptr;
  Counter* connections_total = nullptr;
  Counter* idle_closed = nullptr;
  /// Time responses spent blocked on a peer that was not reading
  /// (send buffer full) — the backpressure signal.
  Histogram* read_stall_seconds = nullptr;
};

class EventEngine;

/// One accepted socket inside the event engine: owns the fd, the
/// ConnectionMachine, and the buffered output. All methods run on the loop
/// thread; query execution happens elsewhere and re-enters through
/// EventEngine::CompleteRequest (posted back by a worker).
class Connection final : public EventLoop::FdHandler {
 public:
  Connection(EventEngine* engine, uint64_t id, int fd, size_t max_input);

  // EventLoop::FdHandler (loop thread; bodies claim the role):
  void OnReadable() override;
  void OnWritable() override;
  void OnHangup() override;

  /// Queues a serialized response and starts flushing. `close_after` marks
  /// the connection for teardown once the buffer drains.
  void EnqueueResponse(std::string bytes, bool close_after)
      REQUIRES(loop_thread_role);

  uint64_t id() const { return id_; }
  int fd() const { return fd_; }
  bool request_in_flight() const REQUIRES(loop_thread_role) {
    return request_in_flight_;
  }
  size_t output_bytes() const REQUIRES(loop_thread_role) {
    return output_.size() - output_offset_;
  }

 private:
  friend class EventEngine;

  /// Extracts + dispatches the next pipelined request if none is in flight
  /// and output is below the backpressure threshold.
  void MaybeDispatch() REQUIRES(loop_thread_role);
  /// Writes buffered output until EAGAIN/empty; manages EPOLLOUT interest,
  /// stall timing, and close-after-flush.
  void Flush() REQUIRES(loop_thread_role);
  /// Recomputes poller interest from buffer state (read paused while the
  /// peer is not draining output).
  void UpdateInterest() REQUIRES(loop_thread_role);

  EventEngine* const engine_;
  const uint64_t id_;
  const int fd_;
  ConnectionMachine machine_ GUARDED_BY(loop_thread_role);

  std::string output_ GUARDED_BY(loop_thread_role);
  size_t output_offset_ GUARDED_BY(loop_thread_role) = 0;
  bool want_read_ GUARDED_BY(loop_thread_role) = true;
  bool want_write_ GUARDED_BY(loop_thread_role) = false;
  bool request_in_flight_ GUARDED_BY(loop_thread_role) = false;
  bool close_after_flush_ GUARDED_BY(loop_thread_role) = false;
  bool peer_half_closed_ GUARDED_BY(loop_thread_role) = false;
  bool closing_ GUARDED_BY(loop_thread_role) = false;
  /// Set while the last write hit EAGAIN with data pending (peer stalled).
  /// Default-constructed to the clock's epoch.
  std::chrono::steady_clock::time_point stall_started_
      GUARDED_BY(loop_thread_role);
  bool stalled_ GUARDED_BY(loop_thread_role) = false;
};

/// The event-driven serving engine: an EventLoop on a dedicated thread
/// multiplexing the listen fd plus every connection, and a WorkerPool
/// running the request handler. The worker that picks a request up stamps
/// HttpRequest::queue_wait before calling the handler. The engine owns
/// accepted fds; the listen fd stays owned by the caller (Server), which
/// also keeps the bind/listen/port logic. A connection is closed when no
/// *complete* request arrives within `idle_timeout`; trickling partial
/// bytes does not reset it (slowloris guard).
class EventEngine {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Invoked (loop thread) for responses the engine originates itself —
  /// protocol errors the router never sees — so they still land in the
  /// per-code response counters. May be null.
  using ResponseObserver = std::function<void(const HttpResponse&)>;

  EventEngine(size_t workers, bool use_epoll,
              std::chrono::milliseconds idle_timeout, Handler handler,
              ResponseObserver count_response, ConnectionMetrics metrics);
  ~EventEngine();

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Starts the loop thread + workers, registers `listen_fd` (must already
  /// be listening and non-blocking) for accept readiness.
  Status Start(int listen_fd);

  /// Drains: stops accepting, joins the loop, finishes in-flight handler
  /// calls, closes every connection. Idempotent.
  void Stop();

  const char* poller_name() const { return loop_.poller_name(); }
  /// Requests handed to the worker pool and not yet picked up. Any thread.
  size_t waiting() const { return workers_.waiting(); }

 private:
  friend class Connection;

  class Acceptor final : public EventLoop::FdHandler {
   public:
    explicit Acceptor(EventEngine* engine) : engine_(engine) {}
    void OnReadable() override;
    void OnWritable() override {}
    void OnHangup() override {}

   private:
    EventEngine* const engine_;
  };

  void AcceptReady() REQUIRES(loop_thread_role);
  /// Hands a parsed request to the worker pool; the response is posted
  /// back to the loop and lands in CompleteRequest.
  void Dispatch(uint64_t conn_id, HttpRequest request)
      REQUIRES(loop_thread_role);
  /// Loop thread: delivers a worker-computed response to the connection
  /// (dropped silently if it closed in the meantime).
  void CompleteRequest(uint64_t conn_id, std::string response_bytes,
                       bool close_after) REQUIRES(loop_thread_role);
  /// Loop thread: tears down one connection.
  void CloseConnection(uint64_t conn_id, bool idle_close)
      REQUIRES(loop_thread_role);
  /// Re-arms the idle deadline (on accept and on each complete request).
  void TouchIdleDeadline(uint64_t conn_id) REQUIRES(loop_thread_role);
  void OnTimer(uint64_t conn_id) REQUIRES(loop_thread_role);

  const std::chrono::milliseconds idle_timeout_;
  const Handler handler_;
  const ResponseObserver count_response_;
  const ConnectionMetrics metrics_;

  EventLoop loop_;
  WorkerPool workers_;
  Acceptor acceptor_;
  int listen_fd_ = -1;
  std::thread loop_thread_;
  bool started_ = false;
  bool stopped_ = false;

  // The connection registry is loop-thread-only; the role capability makes
  // clang prove it (a worker touching connections_ is a build error).
  uint64_t next_conn_id_ GUARDED_BY(loop_thread_role) = 1;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_
      GUARDED_BY(loop_thread_role);
};

}  // namespace galaxy::server

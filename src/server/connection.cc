#include "server/connection.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "common/logging.h"

namespace galaxy::server {

// Every socket the engine touches is non-blocking (set at accept), so the
// recv/send calls below return EAGAIN instead of stalling the loop thread.
// galaxy-lint: allow-file(blocking-socket-io)
// galaxy-lint: allow-file(raw-file-io) -- ::close on sockets, not data files.

namespace {

/// Backpressure threshold: while a connection's output buffer holds more
/// than this, the loop stops reading it and stops dispatching its
/// pipelined requests until the peer drains.
constexpr size_t kMaxOutputBuffer = 1 << 20;
/// Input-side cap per connection (backstop over the parser's limits).
constexpr size_t kMaxInputBuffer = kMaxHeaderBytes + kMaxBodyBytes + 4096;
/// Timer-wheel resolution: idle deadlines fire within one tick.
constexpr std::chrono::milliseconds kTimerTick{20};

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK): " +
                            std::string(::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

// ---- ConnectionMachine -----------------------------------------------------

ConnectionMachine::ConnectionMachine(size_t max_buffered_bytes)
    : max_buffered_bytes_(max_buffered_bytes) {}

void ConnectionMachine::Append(std::string_view bytes) {
  if (poisoned_) return;  // Framing unknown past an error; drop the bytes.
  buffer_.append(bytes.data(), bytes.size());
  if (buffer_.size() - consumed_ > max_buffered_bytes_) {
    poisoned_ = true;
    error_ = Status::ResourceExhausted(
        "connection buffered more than " +
        std::to_string(max_buffered_bytes_) + " unparsed bytes");
    http_status_ = 413;
  }
}

void ConnectionMachine::Compact() {
  // Reclaim the taken prefix only once it dominates the buffer, so heavy
  // pipelining does not turn every TakeRequest into a memmove.
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

ConnectionMachine::Next ConnectionMachine::TakeRequest(HttpRequest* out) {
  if (poisoned_) return Next::kError;
  std::string_view pending(buffer_.data() + consumed_,
                           buffer_.size() - consumed_);
  HttpParseResult parsed = ParseHttpRequest(pending, out);
  switch (parsed.state) {
    case ParseState::kDone:
      consumed_ += parsed.consumed;
      Compact();
      return Next::kRequest;
    case ParseState::kNeedMore:
      return Next::kNeedMore;
    case ParseState::kError:
      poisoned_ = true;
      error_ = parsed.error;
      http_status_ = parsed.http_status;
      return Next::kError;
  }
  return Next::kNeedMore;
}

// ---- Connection ------------------------------------------------------------

Connection::Connection(EventEngine* engine, uint64_t id, int fd,
                       size_t max_input)
    : engine_(engine), id_(id), fd_(fd), machine_(max_input) {}

void Connection::OnReadable() {
  ClaimLoopThreadRole();  // FdHandler callbacks run on the loop thread.
  if (closing_) return;
  char chunk[16384];
  bool peer_closed = false;
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      machine_.Append(std::string_view(chunk, static_cast<size_t>(n)));
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;  // Drain until EAGAIN; saves a poller round trip.
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    engine_->CloseConnection(id_, /*idle_close=*/false);
    return;
  }
  // On EOF the peer may still be reading (shutdown(SHUT_WR)); buffered
  // pipelined requests are still answered, then MaybeDispatch's kNeedMore
  // branch tears the connection down once everything drains.
  if (peer_closed) peer_half_closed_ = true;
  MaybeDispatch();
}

void Connection::OnWritable() {
  ClaimLoopThreadRole();  // FdHandler callbacks run on the loop thread.
  if (closing_) return;
  Flush();
}

void Connection::OnHangup() {
  ClaimLoopThreadRole();  // FdHandler callbacks run on the loop thread.
  if (closing_) return;
  engine_->CloseConnection(id_, /*idle_close=*/false);
}

void Connection::MaybeDispatch() {
  // close_after_flush_ covers the poisoned-machine case too: without it a
  // second call would extract kError again and enqueue a duplicate error
  // response.
  if (closing_ || request_in_flight_ || close_after_flush_) {
    UpdateInterest();
    return;
  }
  if (output_bytes() > kMaxOutputBuffer) {
    // Backpressure: the peer is not draining responses; stop consuming its
    // pipeline until Flush gets the buffer back under the threshold.
    UpdateInterest();
    return;
  }
  HttpRequest request;
  switch (machine_.TakeRequest(&request)) {
    case ConnectionMachine::Next::kRequest:
      request_in_flight_ = true;
      engine_->TouchIdleDeadline(id_);
      engine_->Dispatch(id_, std::move(request));
      break;
    case ConnectionMachine::Next::kNeedMore:
      if (peer_half_closed_ && output_bytes() == 0) {
        // EOF with a dangling partial request and nothing left to flush.
        engine_->CloseConnection(id_, /*idle_close=*/false);
        return;
      }
      break;
    case ConnectionMachine::Next::kError: {
      HttpResponse response =
          JsonErrorResponse(machine_.http_status(), machine_.error_status());
      response.close = true;
      if (engine_->count_response_) engine_->count_response_(response);
      EnqueueResponse(SerializeResponse(response), /*close_after=*/true);
      return;  // EnqueueResponse may already have destroyed *this.
    }
  }
  UpdateInterest();
}

void Connection::EnqueueResponse(std::string bytes, bool close_after) {
  if (closing_) return;
  if (output_.empty() && output_offset_ == 0) {
    output_ = std::move(bytes);
  } else {
    output_.append(bytes);
  }
  if (close_after) close_after_flush_ = true;
  Flush();
}

void Connection::Flush() {
  while (output_offset_ < output_.size()) {
    ssize_t n = ::send(fd_, output_.data() + output_offset_,
                       output_.size() - output_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      output_offset_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!stalled_) {
        stalled_ = true;
        stall_started_ = std::chrono::steady_clock::now();
      }
      break;
    }
    engine_->CloseConnection(id_, /*idle_close=*/false);
    return;
  }
  if (output_offset_ == output_.size()) {
    output_.clear();
    output_offset_ = 0;
    if (stalled_) {
      stalled_ = false;
      if (engine_->metrics_.read_stall_seconds != nullptr) {
        auto stalled_for =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - stall_started_);
        engine_->metrics_.read_stall_seconds->Observe(
            static_cast<uint64_t>(stalled_for.count()));
      }
    }
    if (close_after_flush_) {
      engine_->CloseConnection(id_, /*idle_close=*/false);
      return;
    }
  } else if (output_offset_ > 65536) {
    output_.erase(0, output_offset_);
    output_offset_ = 0;
  }
  if (!request_in_flight_) {
    // Draining output is what releases backpressure (and what lets a
    // half-closed connection finish): re-drive the pipeline.
    MaybeDispatch();
  } else {
    UpdateInterest();
  }
}

void Connection::UpdateInterest() {
  if (closing_) return;
  const bool want_write = output_bytes() > 0;
  const bool want_read =
      !peer_half_closed_ && !machine_.poisoned() && !close_after_flush_ &&
      output_bytes() <= kMaxOutputBuffer;
  if (want_write == want_write_ && want_read == want_read_) return;
  want_write_ = want_write;
  want_read_ = want_read;
  Status updated = engine_->loop_.UpdateFd(fd_, want_read, want_write);
  // A failed interest update means the fd is gone from the poller — the
  // next event (or idle timer) tears the connection down.
  (void)updated;
}

// ---- EventEngine -----------------------------------------------------------

EventEngine::EventEngine(size_t workers, bool use_epoll,
                         std::chrono::milliseconds idle_timeout,
                         Handler handler, ResponseObserver count_response,
                         ConnectionMetrics metrics)
    : idle_timeout_(idle_timeout),
      handler_(std::move(handler)),
      count_response_(std::move(count_response)),
      metrics_(metrics),
      loop_(EventLoop::Options{use_epoll, kTimerTick, 512}),
      workers_(workers),
      acceptor_(this) {}

EventEngine::~EventEngine() { Stop(); }

Status EventEngine::Start(int listen_fd) {
  if (started_) return Status::InvalidArgument("engine already started");
  listen_fd_ = listen_fd;
  GALAXY_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  GALAXY_RETURN_IF_ERROR(loop_.Init());
  // The loop thread does not exist yet, so this thread is (vacuously) the
  // reactor: the pre-start registrations below are race-free.
  ClaimLoopThreadRole();
  loop_.SetTimerCallback([this](uint64_t id) {
    ClaimLoopThreadRole();  // Timer callbacks run on the loop thread.
    OnTimer(id);
  });
  GALAXY_RETURN_IF_ERROR(loop_.AddFd(listen_fd_, &acceptor_,
                                     /*want_read=*/true,
                                     /*want_write=*/false));
  // WorkerPool::Start returns void (same name as the Status-returning
  // EventEngine::Start). galaxy-lint: allow(status-consumed)
  workers_.Start();
  loop_thread_ = std::thread([this] { loop_.Run(); });
  started_ = true;
  return Status::OK();
}

void EventEngine::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // In-flight handler calls finish here; their completions Post into the
  // stopped loop and are dropped, which is fine — every connection below
  // is about to be closed anyway.
  workers_.Stop();
  // The loop thread is joined and the workers are gone: this thread is the
  // sole owner of the connection registry for the teardown below.
  ClaimLoopThreadRole();
  for (auto& [id, conn] : connections_) {
    (void)id;
    conn->closing_ = true;
    ::close(conn->fd());
    if (metrics_.connections_open != nullptr) {
      metrics_.connections_open->Add(-1);
    }
  }
  connections_.clear();
  listen_fd_ = -1;  // Owned (and closed) by the caller.
}

void EventEngine::Acceptor::OnReadable() {
  ClaimLoopThreadRole();  // FdHandler callbacks run on the loop thread.
  engine_->AcceptReady();
}

void EventEngine::AcceptReady() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // EAGAIN (drained) or fatal (e.g. EMFILE: retry next wakeup).
    }
    Status nb = SetNonBlocking(fd);
    if (!nb.ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(this, id, fd, kMaxInputBuffer);
    Status added = loop_.AddFd(fd, conn.get(), /*want_read=*/true,
                               /*want_write=*/false);
    if (!added.ok()) {
      ::close(fd);
      continue;
    }
    connections_.emplace(id, std::move(conn));
    if (metrics_.connections_total != nullptr) metrics_.connections_total->Inc();
    if (metrics_.connections_open != nullptr) metrics_.connections_open->Add(1);
    TouchIdleDeadline(id);
  }
}

void EventEngine::Dispatch(uint64_t conn_id, HttpRequest request) {
  const auto handed_off = std::chrono::steady_clock::now();
  workers_.Submit([this, conn_id, handed_off,
                   request = std::move(request)]() mutable {
    request.queue_wait = HttpRequest::QueueWait{
        std::chrono::steady_clock::now() - handed_off, workers_.waiting()};
    HttpResponse response = handler_(request);
    response.close = response.close || request.WantsClose();
    const bool close_after = response.close;
    std::string bytes = SerializeResponse(response);
    loop_.Post([this, conn_id, bytes = std::move(bytes), close_after]() mutable {
      ClaimLoopThreadRole();  // Posted closures run on the loop thread.
      CompleteRequest(conn_id, std::move(bytes), close_after);
    });
  });
}

void EventEngine::CompleteRequest(uint64_t conn_id, std::string response_bytes,
                                  bool close_after) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;  // Closed while the query ran.
  Connection* conn = it->second.get();
  conn->request_in_flight_ = false;
  conn->EnqueueResponse(std::move(response_bytes), close_after);
  // EnqueueResponse may have torn the connection down (write error, or
  // close-after-flush with an empty buffer); only then is `conn` gone.
  auto again = connections_.find(conn_id);
  if (again != connections_.end()) again->second->MaybeDispatch();
}

void EventEngine::CloseConnection(uint64_t conn_id, bool idle_close) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  conn->closing_ = true;
  loop_.CancelTimer(conn_id);
  loop_.RemoveFd(conn->fd());
  ::close(conn->fd());
  connections_.erase(it);
  if (metrics_.connections_open != nullptr) metrics_.connections_open->Add(-1);
  if (idle_close && metrics_.idle_closed != nullptr) {
    metrics_.idle_closed->Inc();
  }
}

void EventEngine::TouchIdleDeadline(uint64_t conn_id) {
  loop_.ScheduleTimer(conn_id, TimerWheel::Clock::now() + idle_timeout_);
}

void EventEngine::OnTimer(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  if (it->second->request_in_flight()) {
    // A query is executing; its own ExecutionContext deadline governs it.
    TouchIdleDeadline(conn_id);
    return;
  }
  // No complete request within the window — idle keep-alive, a slowloris
  // trickle, or a peer that stopped draining responses. All are closed and
  // counted the same way.
  CloseConnection(conn_id, /*idle_close=*/true);
}

}  // namespace galaxy::server

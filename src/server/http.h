#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace galaxy::server {

/// Hard limits of the request parser. Requests exceeding them are rejected
/// with a definite error (never unbounded buffering): the serving layer
/// reads untrusted bytes off the network, so every limit here is a
/// denial-of-service guard.
inline constexpr size_t kMaxHeaderBytes = 64 * 1024;
inline constexpr size_t kMaxBodyBytes = 8 * 1024 * 1024;
inline constexpr size_t kMaxHeaderCount = 100;

/// One parsed HTTP/1.1 request. Header names are matched
/// case-insensitively; `path` and `query_params` are the percent-decoded
/// split of the request target.
struct HttpRequest {
  std::string method;   ///< upper-case as sent (GET, POST, ...)
  std::string target;   ///< raw request target ("/query?x=1")
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  std::string path;  ///< target up to '?', percent-decoded
  std::vector<std::pair<std::string, std::string>> query_params;

  /// How the request fared in the event engine's worker pool, stamped when
  /// a worker picks it up. The server's overload rule reads it; in-process
  /// callers of Server::Handle leave it unset and are always admitted.
  struct QueueWait {
    /// Time from the hand-off to the pool until a worker picked it up.
    std::chrono::steady_clock::duration waited{};
    /// Requests still waiting in the pool at that moment.
    size_t waiting = 0;
  };
  std::optional<QueueWait> queue_wait;

  /// First header with the given case-insensitive name, or nullptr.
  const std::string* FindHeader(std::string_view name) const;
  /// First query parameter with the given name, or nullptr.
  const std::string* FindParam(std::string_view name) const;
  /// True when the client asked to close the connection after this
  /// exchange (Connection: close, or HTTP/1.0 without keep-alive).
  bool WantsClose() const;
};

enum class ParseState {
  kDone,      ///< one full request parsed; `consumed` bytes used
  kNeedMore,  ///< the buffer holds a prefix of a valid request
  kError,     ///< malformed or over-limit; `error` + `http_status` say why
};

struct HttpParseResult {
  ParseState state = ParseState::kNeedMore;
  size_t consumed = 0;  ///< bytes of `input` forming the request (kDone)
  Status error;         ///< set when state == kError
  int http_status = 400;  ///< response code to send for kError (400/413/501)
};

/// Incremental HTTP/1.1 request parser: examines `input` (the bytes
/// buffered so far on a connection) and either produces one complete
/// request, asks for more bytes, or rejects. Tolerates both CRLF and bare
/// LF line endings. Bodies require Content-Length; Transfer-Encoding is
/// rejected with 501. Never reads past `input` and never consumes bytes of
/// a request it did not fully parse, so callers can append and retry.
HttpParseResult ParseHttpRequest(std::string_view input, HttpRequest* out);

/// One HTTP response to serialize.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;
  bool close = false;  ///< send "Connection: close"
};

/// Standard reason phrase for the status codes the server emits.
const char* HttpStatusText(int status);

/// The server's uniform JSON error envelope:
/// {"error": "...", "code": "InvalidArgument"}. Shared between the request
/// router and the connection layers (both serving modes reject malformed
/// requests with the same body shape).
HttpResponse JsonErrorResponse(int http_status, const Status& status);

/// Renders status line + headers (Content-Type, Content-Length, extras,
/// Connection) + body.
std::string SerializeResponse(const HttpResponse& response);

/// Percent-decodes a URL component ('+' becomes a space, %XX a byte;
/// malformed escapes are kept literally).
std::string UrlDecode(std::string_view text);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view text);

}  // namespace galaxy::server


#include "testing/http_fuzz.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "server/connection.h"
#include "server/http.h"

namespace galaxy::server {
namespace {

// Deterministic splitmix64 stream — the same generator the other fuzz
// modules use, so campaigns reproduce exactly from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

std::string EscapeForReport(std::string_view text) {
  std::string out;
  for (char c : text.substr(0, 200)) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '\\' && c != '"') {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    }
  }
  if (text.size() > 200) out += "...";
  return out;
}

std::string RandomToken(Rng& rng, size_t max_len) {
  static constexpr char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~";
  std::string out;
  size_t len = 1 + rng.Below(max_len);
  for (size_t i = 0; i < len; ++i) {
    out += kChars[rng.Below(sizeof(kChars) - 1)];
  }
  return out;
}

struct GeneratedRequest {
  std::string wire;
  std::string method;
  std::string path_component;  // first path segment, pre-encoding
  std::string body;
};

// Builds a syntactically valid request the parser is REQUIRED to accept.
GeneratedRequest GenerateValid(Rng& rng) {
  static const char* kMethods[] = {"GET", "POST", "PUT", "DELETE", "HEAD"};
  GeneratedRequest req;
  req.method = kMethods[rng.Below(5)];
  req.path_component = RandomToken(rng, 12);

  std::string target = "/" + req.path_component;
  size_t params = rng.Below(3);
  for (size_t i = 0; i < params; ++i) {
    target += (i == 0 ? '?' : '&');
    target += RandomToken(rng, 6) + "=" + RandomToken(rng, 8);
  }

  bool has_body = rng.Below(2) == 0;
  if (has_body) {
    size_t len = rng.Below(64);
    for (size_t i = 0; i < len; ++i) {
      req.body += static_cast<char>(rng.Below(256));
    }
  }

  const char* eol = rng.Below(2) == 0 ? "\r\n" : "\n";
  req.wire = req.method + " " + target + " HTTP/1.1" + eol;
  req.wire += "Host: localhost" + std::string(eol);
  size_t extra = rng.Below(4);
  for (size_t i = 0; i < extra; ++i) {
    req.wire += "X-" + RandomToken(rng, 8) + ": " + RandomToken(rng, 16) + eol;
  }
  if (has_body || rng.Below(2) == 0) {
    req.wire += "Content-Length: " + std::to_string(req.body.size()) + eol;
  } else if (!req.body.empty()) {
    req.body.clear();
  }
  req.wire += eol;
  req.wire += req.body;
  return req;
}

std::string Mutate(Rng& rng, std::string input) {
  size_t edits = 1 + rng.Below(4);
  for (size_t e = 0; e < edits && !input.empty(); ++e) {
    switch (rng.Below(4)) {
      case 0:  // flip a byte
        input[rng.Below(input.size())] = static_cast<char>(rng.Below(256));
        break;
      case 1:  // delete a span
      {
        size_t pos = rng.Below(input.size());
        size_t len = 1 + rng.Below(8);
        input.erase(pos, len);
        break;
      }
      case 2:  // duplicate a span
      {
        size_t pos = rng.Below(input.size());
        size_t len = 1 + rng.Below(8);
        input.insert(pos, input.substr(pos, len));
        break;
      }
      default:  // splice in noise
      {
        std::string noise;
        size_t len = 1 + rng.Below(8);
        for (size_t i = 0; i < len; ++i) {
          noise += static_cast<char>(rng.Below(256));
        }
        input.insert(rng.Below(input.size() + 1), noise);
        break;
      }
    }
  }
  return input;
}

std::string Garbage(Rng& rng) {
  std::string out;
  size_t len = rng.Below(256);
  for (size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng.Below(256));
  }
  return out;
}

}  // namespace

std::string FuzzConnection(uint64_t seed, int iterations,
                           ConnFuzzStats* stats) {
  Rng rng(seed ^ 0x436f6e6eULL);  // "Conn"
  ConnFuzzStats local;
  ConnFuzzStats* s = stats != nullptr ? stats : &local;

  auto fail = [](const std::string& what, std::string_view input) {
    return what + " stream=\"" + EscapeForReport(input) + "\"";
  };

  for (int iter = 0; iter < iterations; ++iter) {
    ++s->streams;

    // A pipeline of valid requests, optionally ending in adversarial bytes
    // whose framing the machine must refuse to guess past.
    size_t num_valid = rng.Below(4);
    std::vector<GeneratedRequest> expected;
    std::string stream;
    for (size_t i = 0; i < num_valid; ++i) {
      expected.push_back(GenerateValid(rng));
      stream += expected.back().wire;
    }
    enum class Tail { kClean, kPartial, kAdversarial };
    Tail tail = static_cast<Tail>(rng.Below(3));
    std::string partial;
    if (tail == Tail::kPartial) {
      GeneratedRequest next = GenerateValid(rng);
      partial = next.wire.substr(0, rng.Below(next.wire.size()));
      stream += partial;
    } else if (tail == Tail::kAdversarial) {
      // Mutated request or raw garbage; may still parse, may poison.
      stream += rng.Below(2) == 0 ? Mutate(rng, GenerateValid(rng).wire)
                                  : Garbage(rng);
    }

    // Feed the stream across randomized read boundaries: mostly small
    // chunks, frequently single bytes — the splits a slow peer or a
    // 1-byte-at-a-time test produces.
    ConnectionMachine machine(/*max_buffered_bytes=*/1 << 20);
    size_t offset = 0;
    size_t extracted = 0;
    bool saw_error = false;
    while (offset < stream.size() || offset == 0) {
      size_t chunk_len = rng.Below(3) == 0
                             ? 1
                             : 1 + rng.Below(64);
      chunk_len = std::min(chunk_len, stream.size() - offset);
      machine.Append(std::string_view(stream).substr(offset, chunk_len));
      offset += chunk_len;
      ++s->chunks;

      // Drain everything extractable at this boundary, like the event
      // loop's dispatch cycle does.
      for (;;) {
        HttpRequest req;
        ConnectionMachine::Next next = machine.TakeRequest(&req);
        if (next == ConnectionMachine::Next::kNeedMore) {
          if (machine.poisoned()) {
            return fail("kNeedMore from a poisoned machine", stream);
          }
          break;
        }
        if (next == ConnectionMachine::Next::kError) {
          saw_error = true;
          ++s->poisoned;
          if (!machine.poisoned()) {
            return fail("kError without poisoning", stream);
          }
          if (machine.error_status().ok()) {
            return fail("kError with ok Status", stream);
          }
          if (machine.http_status() < 400 || machine.http_status() > 599) {
            return fail("kError with non-4xx/5xx status", stream);
          }
          break;
        }
        ++s->requests;
        if (extracted < expected.size()) {
          const GeneratedRequest& want = expected[extracted];
          if (req.method != want.method ||
              req.path != "/" + want.path_component ||
              req.body != want.body) {
            return fail("pipelined request #" + std::to_string(extracted) +
                            " extracted out of order or corrupted",
                        stream);
          }
        }
        ++extracted;
      }
      if (saw_error || stream.empty()) break;
    }

    if (!saw_error && extracted < expected.size()) {
      return fail("only " + std::to_string(extracted) + " of " +
                      std::to_string(expected.size()) +
                      " pipelined requests extracted",
                  stream);
    }
    if (tail == Tail::kClean && !saw_error && extracted != expected.size()) {
      return fail("clean stream fabricated an extra request", stream);
    }
    if (tail == Tail::kPartial && !saw_error &&
        machine.buffered_bytes() != partial.size()) {
      return fail("partial tail not held back intact", stream);
    }

    // Stickiness: once poisoned, every further interaction must keep
    // reporting the same error — pipelined bytes after a framing error
    // are unreachable by design.
    if (saw_error) {
      int status = machine.http_status();
      machine.Append("GET / HTTP/1.1\r\n\r\n");
      HttpRequest req;
      if (machine.TakeRequest(&req) != ConnectionMachine::Next::kError) {
        return fail("poisoned machine accepted new bytes", stream);
      }
      if (machine.http_status() != status) {
        return fail("poisoned machine changed its status code", stream);
      }
    }
  }

  // Overflow backstop: a terminator-free flood past the cap must poison
  // with 413 rather than buffer without bound.
  {
    ++s->streams;
    ConnectionMachine machine(/*max_buffered_bytes=*/4096);
    std::string flood(8192, 'A');
    machine.Append(flood);
    HttpRequest req;
    if (machine.TakeRequest(&req) != ConnectionMachine::Next::kError ||
        machine.http_status() != 413) {
      return fail("input overflow did not poison with 413", flood);
    }
    ++s->poisoned;
  }

  return "";
}

std::string FuzzHttp(uint64_t seed, int iterations, HttpFuzzStats* stats) {
  Rng rng(seed ^ 0x48747470ULL);  // "Http"
  HttpFuzzStats local;
  HttpFuzzStats* s = stats != nullptr ? stats : &local;

  auto fail = [](const std::string& what, std::string_view input) {
    return what + " input=\"" + EscapeForReport(input) + "\"";
  };

  // Feeds one input through the parser and checks the universal contract:
  // a definite state, consumed within bounds, error details present on
  // kError. Returns "" or a violation description.
  auto check = [&](std::string_view input) -> std::string {
    ++s->inputs;
    HttpRequest req;
    HttpParseResult result = ParseHttpRequest(input, &req);
    switch (result.state) {
      case ParseState::kDone:
        ++s->parsed;
        if (result.consumed > input.size()) {
          return fail("consumed > input size on kDone", input);
        }
        if (req.method.empty() || req.target.empty()) {
          return fail("kDone with empty method or target", input);
        }
        break;
      case ParseState::kNeedMore:
        ++s->need_more;
        if (result.consumed != 0) {
          return fail("kNeedMore consumed bytes", input);
        }
        break;
      case ParseState::kError:
        ++s->errors;
        if (result.error.ok()) {
          return fail("kError with ok Status", input);
        }
        if (result.http_status < 400 || result.http_status > 599) {
          return fail("kError with non-4xx/5xx http_status", input);
        }
        break;
    }
    return "";
  };

  for (int iter = 0; iter < iterations; ++iter) {
    // 1. A valid request must round-trip exactly.
    GeneratedRequest gen = GenerateValid(rng);
    {
      ++s->inputs;
      HttpRequest req;
      HttpParseResult result = ParseHttpRequest(gen.wire, &req);
      if (result.state != ParseState::kDone) {
        return fail("valid request did not parse", gen.wire);
      }
      ++s->parsed;
      if (result.consumed != gen.wire.size()) {
        return fail("valid request consumed wrong byte count", gen.wire);
      }
      if (req.method != gen.method) {
        return fail("method mismatch", gen.wire);
      }
      if (req.path != "/" + gen.path_component) {
        return fail("path mismatch", gen.wire);
      }
      if (req.body != gen.body) {
        return fail("body mismatch", gen.wire);
      }
    }

    // 2. Every proper prefix is incomplete or an error — never a full parse
    //    that consumes more than it was given.
    size_t cut = rng.Below(gen.wire.size());
    {
      std::string_view prefix(gen.wire.data(), cut);
      ++s->inputs;
      HttpRequest req;
      HttpParseResult result = ParseHttpRequest(prefix, &req);
      if (result.state == ParseState::kDone) {
        ++s->parsed;
        if (result.consumed > prefix.size()) {
          return fail("prefix parse consumed past the cut", prefix);
        }
      } else if (result.state == ParseState::kNeedMore) {
        ++s->need_more;
      } else {
        ++s->errors;
      }
    }

    // 3. Mutations and raw garbage must terminate with a definite verdict.
    std::string violation = check(Mutate(rng, gen.wire));
    if (!violation.empty()) return violation;
    violation = check(Garbage(rng));
    if (!violation.empty()) return violation;
  }
  return "";
}

}  // namespace galaxy::server
